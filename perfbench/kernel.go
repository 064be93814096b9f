package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"diversity/internal/engine"
	"diversity/internal/faultmodel"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// kernelBench runs kernel-mix jobs through one engine, as the CLIs and
// the facade do.
type kernelBench struct {
	reg        *telemetry.Registry
	eng        *engine.Engine
	refs       map[string]pfdRef // closed forms of the Monte-Carlo paths' system PFD
	versions   map[string]pfdRef // and of their version PFD
	rareClosed float64           // closed form of the rare path's P(N_m > 0)
}

// resolveModel resolves a job's model with its voting rule.
func resolveModel(model engine.ModelSpec, adjudicator string, versions int) (*faultmodel.FaultSet, system.Adjudicator, error) {
	fs, _, err := model.Resolve()
	if err != nil {
		return nil, nil, err
	}
	adj, err := engine.ResolveAdjudicator("", adjudicator, versions)
	if err != nil {
		return nil, nil, err
	}
	return fs, adj, nil
}

// setupKernel resolves every path's model for its closed form, builds
// the engine and runs one warm-up cycle on seeds the measured cycle
// never uses.
func setupKernel(ctx context.Context, g generator) (*kernelBench, error) {
	k := &kernelBench{reg: telemetry.NewRegistry(), refs: make(map[string]pfdRef), versions: make(map[string]pfdRef)}
	k.eng = engine.New(engine.Options{Telemetry: k.reg})
	for _, path := range kernelPaths {
		j := kernelJob(path, 0)
		if re := j.job.RareEvent; re != nil {
			fs, adj, err := resolveModel(re.Model, "", re.Versions)
			if err == nil {
				k.rareClosed, err = system.PAnySystemFault(fs, adj, re.Versions)
			}
			if err != nil {
				return nil, fmt.Errorf("closed form of %s: %w", path, err)
			}
			continue
		}
		spec := j.job.MonteCarlo
		fs, adj, err := resolveModel(spec.Model, spec.Adjudicator, spec.Versions)
		if err != nil {
			return nil, fmt.Errorf("resolving %s model: %w", path, err)
		}
		if k.refs[path], err = newPFDRef(fs, adj, spec.Versions); err != nil {
			return nil, fmt.Errorf("closed form of %s: %w", path, err)
		}
		k.versions[path] = versionPFDRef(fs)
	}
	for i, path := range kernelPaths {
		j := kernelJob(path, g.seedAt(streamWarm, uint64(i)))
		res, err := k.eng.Run(ctx, j.job)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", path, err)
		}
		if _, _, err := k.check(j, res); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", path, err)
		}
	}
	return k, nil
}

// check is the correctness gate of one kernel-mix job. It returns the
// job's estimate, the mean system PFD or for a rare job the
// probability of a defeating fault with its standard error, for the
// pooled check of the path.
func (k *kernelBench) check(j genJob, res *engine.Result) (mean, stdErr float64, err error) {
	if re := res.RareEvent; re != nil {
		if math.Abs(re.ClosedForm-k.rareClosed) > 1e-9*k.rareClosed {
			return 0, 0, fmt.Errorf("%s job reports the closed form %.9g, want %.9g", j.path, re.ClosedForm, k.rareClosed)
		}
		is := re.ImportanceSampling
		return is.Probability, is.StdErr, checkEstimate(is.Probability, is.StdErr, k.rareClosed)
	}
	mc := res.MonteCarlo
	if mc == nil {
		return 0, 0, fmt.Errorf("%s job returned no Monte-Carlo result", j.path)
	}
	if mc.Reps != j.reps {
		return 0, 0, fmt.Errorf("%s job ran %d reps, want %d", j.path, mc.Reps, j.reps)
	}
	ver, err := mc.VersionSummary()
	if err != nil {
		return 0, 0, fmt.Errorf("%s version summary: %w", j.path, err)
	}
	if err := k.versions[j.path].checkMean(ver.Mean, j.reps); err != nil {
		return 0, 0, fmt.Errorf("%s version: %w", j.path, err)
	}
	sum, err := mc.SystemSummary()
	if err != nil {
		return 0, 0, fmt.Errorf("%s system summary: %w", j.path, err)
	}
	if err := k.refs[j.path].checkMean(sum.Mean, j.reps); err != nil {
		return 0, 0, fmt.Errorf("%s system: %w", j.path, err)
	}
	return sum.Mean, 0, nil
}

// checkPooled is the correctness gate of all of one path's jobs in a
// phase together.
func (k *kernelBench) checkPooled(path string, p *pooled) error {
	if path == pathRare {
		return checkEstimate(p.mean(), p.stdErr(), k.rareClosed)
	}
	if err := k.refs[path].checkMean(p.mean(), p.reps); err != nil {
		return fmt.Errorf("system: %w", err)
	}
	return nil
}

// kernelStats is what one kernel-mix phase measured.
type kernelStats struct {
	jobs, failed int
	wall         time.Duration
	// pathRates holds each path's per-job throughput, in reps/s. The
	// reported rate is its 90th percentile (see sustainedRate), except
	// for the single-threaded rare path.
	pathRates map[string][]float64
	rareTTP   []float64 // per rare job: seconds to reach 1% relative SE
	pooled    map[string]*pooled
	firstErr  error
	next      int // generator index the next phase starts from
}

// run executes whole kernel-mix cycles back to back, from generator
// index from, until the budget is spent.
func (k *kernelBench) run(ctx context.Context, g generator, from int, b budget, tr *tracer) kernelStats {
	st := kernelStats{pathRates: make(map[string][]float64), pooled: make(map[string]*pooled)}
	start := time.Now()
	i := from
	for ; ; i++ {
		if i%len(kernelPaths) == 0 && (b.spent(time.Since(start), i-from) || ctx.Err() != nil) {
			break
		}
		j := g.kernel(i)
		t0 := time.Now()
		res, err := k.eng.Run(ctx, j.job)
		t1 := time.Now()
		if tr != nil {
			tr.record(fmt.Sprintf("k%d", i), "engine.Run."+j.path, "", t0, t1)
		}
		dt := t1.Sub(t0)
		st.jobs++
		var mean, stdErr float64
		if err == nil {
			mean, stdErr, err = k.check(j, res)
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("job %d (%s): %w", i, j.path, err)
			}
			continue
		}
		if st.pooled[j.path] == nil {
			st.pooled[j.path] = &pooled{}
		}
		st.pooled[j.path].add(mean, stdErr, j.reps)
		st.pathRates[j.path] = append(st.pathRates[j.path], float64(j.reps)/dt.Seconds())
		if re := res.RareEvent; re != nil {
			rel := re.ImportanceSampling.StdErr / re.ImportanceSampling.Probability
			st.rareTTP = append(st.rareTTP, dt.Seconds()*(rel/0.01)*(rel/0.01))
		}
	}
	st.wall = time.Since(start)
	st.next = i
	for _, path := range kernelPaths {
		p := st.pooled[path]
		if p == nil {
			continue
		}
		if err := k.checkPooled(path, p); err != nil {
			// The jobs agree with the closed form one by one but not
			// together: every one of them counts as failed.
			st.failed += p.jobs
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("%s jobs pooled over %d reps: %w", path, p.reps, err)
			}
		}
	}
	return st
}

// pathMetrics adds each path's throughput and the rare path's time to
// 1% relative standard error.
func (st kernelStats) pathMetrics(m *metrics) {
	for _, path := range kernelPaths {
		if rates := st.pathRates[path]; len(rates) > 0 {
			rate := sustainedRate(rates)
			if path == pathRare {
				// The rare-event estimators run on one goroutine, so no
				// rare job waits for a second vCPU: its rates have no
				// slow cluster, and their median is steadier than an
				// upper percentile.
				rate = median(rates)
			}
			m.set(path+"_reps_per_s", rate, "reps/s")
		}
	}
	if len(st.rareTTP) > 0 {
		m.set("rare_time_to_1pct_s", median(st.rareTTP), "s")
	}
}
