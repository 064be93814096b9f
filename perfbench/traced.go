package main

import (
	"context"
	"fmt"
	"math"
	"time"
)

// Shares of a traced run's time.
const (
	// workloadShare is the share the workload's phase gets with tracing
	// off, and again with tracing on; their difference is the tracing
	// overhead.
	workloadShare = 0.3
	// otherShare is the share of each service phase run only for the
	// per-layer metrics of layers the workload does not reach.
	otherShare = 0.15
)

// tracedRun reports the per-layer metrics. The workload's phase
// alternates untraced and traced slices, for trace.overhead_frac, and
// supplies the metrics of the layers it drives. Layer probes time the
// kernel layers and the store directly, and short traced phases of the
// other service workloads supply the server, store and fabric metrics
// the workload itself does not reach.
func tracedRun(ctx context.Context, workload string, g generator, seed uint64, secs float64, r *report) error {
	tr := newTracer()
	m := r.m
	tmpRoot := buildDir + "/tmp"
	dur := func(share float64) time.Duration { return time.Duration(share * secs * float64(time.Second)) }

	// serve-fresh runs last of these, so that where the workload does
	// not drive the server and store itself their metrics describe the
	// durable deployment.
	for _, other := range []string{fabricRepeat, serveFresh} {
		if other == workload {
			continue
		}
		og := newGenerator(other, seed)
		s, err := setupService(ctx, other, og, tmpRoot, tr)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", other, err)
		}
		st := s.run(ctx, og, 0, jobBudget(other, dur(otherShare)), tr)
		if err := s.close(); err != nil {
			return err
		}
		r.count(st.jobs, st.failed, st.firstErr)
		r.note("%s (layer phase): %d jobs in %.2f s", other, st.jobs, st.wall.Seconds())
		st.layerMetrics(m, s, tr)
	}

	pm, err := resolveProbeModels()
	if err != nil {
		return err
	}
	kernelLayerProbes(pm, seed, m)
	if err := montecarloProbes(ctx, pm, g, m, tr); err != nil {
		return err
	}
	if err := engineProbes(g, m); err != nil {
		return err
	}
	if err := storeProbes(tmpRoot, m); err != nil {
		return err
	}

	// The workload's own phase comes last, so the layer metrics it
	// measures itself replace those of the other phases.
	var perJob [2]float64
	if workload == kernelMix {
		k, err := setupKernel(ctx, g)
		if err != nil {
			return fmt.Errorf("kernel-mix set-up: %w", err)
		}
		hits, misses := k.reg.Counter("engine.cache.hits").Value(), k.reg.Counter("engine.cache.misses").Value()
		next := 0
		perJob = alternate(tr, dur(workloadShare), 0, func(d time.Duration) (int, time.Duration) {
			st := k.run(ctx, g, next, budget{d: d}, tr)
			next = st.next
			r.count(st.jobs, st.failed, st.firstErr)
			return st.jobs - st.failed, st.wall
		})
		hits = k.reg.Counter("engine.cache.hits").Value() - hits
		misses = k.reg.Counter("engine.cache.misses").Value() - misses
		m.set("engine.cache_hit_frac", float64(hits)/float64(hits+misses), "ratio")
	} else {
		s, err := setupService(ctx, workload, g, tmpRoot, tr)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", workload, err)
		}
		var all serviceStats
		perJob = alternate(tr, dur(workloadShare), minJobs, func(d time.Duration) (int, time.Duration) {
			st := s.run(ctx, g, all.next, budget{d: d}, tr)
			all.add(st)
			return len(st.outcomes), st.wall
		})
		if err := s.close(); err != nil {
			return err
		}
		r.count(all.jobs, all.failed, all.firstErr)
		r.note("%s: %d jobs in %.2f s", workload, all.jobs, all.wall.Seconds())
		all.layerMetrics(m, s, tr)
	}
	m.set("trace.overhead_frac", (perJob[1]-perJob[0])/perJob[0], "ratio")
	return tr.write(fmt.Sprintf("%s/trace/%s-seed%d.jsonl", buildDir, workload, seed))
}

// alternate runs slices of a phase with tracing off and on in turn, so
// that drift over the phase (caches and heap filling up) cancels out of
// the comparison, until each side has run for d and the slices together
// have completed minJobs jobs. It returns each side's seconds per
// completed job, tracing off first, and leaves tracing on.
func alternate(tr *tracer, d time.Duration, minJobs int, slice func(time.Duration) (int, time.Duration)) [2]float64 {
	const slices = 3 // per side
	var jobs [2]int
	var wall [2]time.Duration
	for k := 0; ; k++ {
		side := k % 2
		tr.on.Store(side == 1)
		n, w := slice(d / slices)
		jobs[side] += n
		wall[side] += w
		if side == 1 && wall[0] >= d && wall[1] >= d && (jobs[0]+jobs[1] >= minJobs || wall[0] >= d+maxOverrun) {
			break
		}
	}
	tr.on.Store(true)
	var perJob [2]float64
	for i := range perJob {
		perJob[i] = math.Inf(1)
		if jobs[i] > 0 {
			perJob[i] = wall[i].Seconds() / float64(jobs[i])
		}
	}
	return perJob
}
