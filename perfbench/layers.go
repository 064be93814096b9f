package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"diversity/internal/devsim"
	"diversity/internal/engine"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/randx"
	"diversity/internal/store"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// Probe results are folded into these so the compiler cannot drop the
// timed calls.
var (
	sinkU uint64
	sinkF float64
)

// probeRepeats is how many times each probe is timed; its median is
// reported.
const probeRepeats = 5

// medianNs times f probeRepeats times and returns the median duration
// in nanoseconds per operation, f doing ops operations per call.
func medianNs(ops int, f func()) float64 {
	var ns []float64
	for r := 0; r < probeRepeats; r++ {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0))/float64(ops))
	}
	return median(ns)
}

// probeModels are the resolved fault sets the layer probes run on.
type probeModels struct {
	commercial, pool, million, safety *faultmodel.FaultSet
}

func resolveProbeModels() (probeModels, error) {
	var pm probeModels
	for _, x := range []struct {
		dst  **faultmodel.FaultSet
		spec engine.ModelSpec
	}{
		{&pm.commercial, engine.ModelSpec{Scenario: "commercial-grade", ScenarioSeed: commercialSeed}},
		{&pm.pool, engine.ModelSpec{Scenario: "n-version-pool", ScenarioSeed: poolSeed}},
		{&pm.million, engine.ModelSpec{Scenario: "million-faults"}},
		{&pm.safety, engine.ModelSpec{Scenario: "safety-grade", ScenarioSeed: safetySeed}},
	} {
		fs, _, err := x.spec.Resolve()
		if err != nil {
			return pm, err
		}
		*x.dst = fs
	}
	return pm, nil
}

// kernelLayerProbes times the randx, devsim and system calls the
// kernel paths make, one call at a time.
func kernelLayerProbes(pm probeModels, seed uint64, m *metrics) {
	r := randx.NewStream(seed)
	const draws = 1 << 20
	m.set("randx.float64_ns", medianNs(draws, func() {
		for i := 0; i < draws; i++ {
			sinkF += r.Float64()
		}
	}), "ns")
	var thresholds []uint64
	for _, f := range pm.commercial.Faults() {
		thresholds = append(thresholds, devsim.BernoulliThreshold(f.P))
	}
	const hitRounds = 4096
	m.set("randx.hits_ns", medianNs(hitRounds*len(thresholds), func() {
		for i := 0; i < hitRounds; i++ {
			for _, t := range thresholds {
				sinkU ^= r.Hits(t, 64)
			}
		}
	}), "ns")
	geo := randx.NewGeometricSampler(pm.million.Fault(0).P)
	m.set("randx.geometric_ns", medianNs(draws/4, func() {
		for i := 0; i < draws/4; i++ {
			sinkU += uint64(geo.Next(r))
		}
	}), "ns")

	dense := devsim.NewIndependentProcess(pm.commercial)
	present := make([]bool, pm.commercial.N())
	const develops = 1 << 14
	m.set("devsim.develop_ns.dense", medianNs(develops, func() {
		for i := 0; i < develops; i++ {
			dense.DevelopInto(r, present)
		}
	}), "ns")
	sparse := devsim.NewIndependentProcess(pm.million)
	mask := devsim.NewBitset(pm.million.N())
	m.set("devsim.develop_ns.sparse", medianNs(develops, func() {
		for i := 0; i < develops; i++ {
			sinkU += uint64(sparse.DevelopSparse(r, mask))
		}
	}), "ns")
	cols, scratch := batchColumns(pm.commercial, 64)
	const tiles = 1 << 10
	m.set("devsim.develop_ns_per_rep.batch", medianNs(tiles*len(cols), func() {
		for i := 0; i < tiles; i++ {
			dense.DevelopBatch(r, cols, scratch)
		}
	}), "ns")

	pairs := cols
	dense.DevelopBatch(r, pairs, scratch)
	one := system.OneOutOfN{}
	const evals = 1 << 12
	m.set("system.bitset_pfd_ns.1oo2", medianNs(evals*len(pairs)/2, func() {
		for i := 0; i < evals; i++ {
			for k := 0; k+1 < len(pairs); k += 2 {
				pfd, _ := system.BitsetSystemPFD(pm.commercial, one, pairs[k:k+2])
				sinkF += pfd
			}
		}
	}), "ns")
	pool := devsim.NewIndependentProcess(pm.pool)
	triples, poolScratch := batchColumns(pm.pool, 63)
	pool.DevelopBatch(r, triples, poolScratch)
	twoOfThree, _ := system.ParseAdjudicator("2oo3")
	m.set("system.bitset_pfd_ns.2oo3", medianNs(evals*len(triples)/3, func() {
		for i := 0; i < evals; i++ {
			for k := 0; k+2 < len(triples); k += 3 {
				pfd, _ := system.BitsetSystemPFD(pm.pool, twoOfThree, triples[k:k+3])
				sinkF += pfd
			}
		}
	}), "ns")
}

// batchColumns allocates a tile of width bitset columns over fs with
// its DevelopBatch scratch.
func batchColumns(fs *faultmodel.FaultSet, width int) ([]*devsim.Bitset, []uint64) {
	cols := make([]*devsim.Bitset, width)
	for i := range cols {
		cols[i] = devsim.NewBitset(fs.N())
	}
	return cols, make([]uint64, devsim.BatchScratchLen(width, fs.N()))
}

// directRun runs a kernel-mix job's shape straight through montecarlo,
// without the engine.
func directRun(ctx context.Context, pm probeModels, j genJob, workers int, reg *telemetry.Registry) error {
	if re := j.job.RareEvent; re != nil {
		opts := montecarlo.RareOptions{Adjudicator: system.OneOutOfN{}}
		if _, err := montecarlo.EstimateRareSystemFaultOpts(ctx, pm.safety, re.Versions, re.Reps, re.Seed, 0.3, opts); err != nil {
			return err
		}
		_, err := montecarlo.EstimateNaiveSystemFaultOpts(ctx, pm.safety, re.Versions, re.Reps, re.Seed, opts)
		return err
	}
	spec := j.job.MonteCarlo
	fs := pm.commercial
	switch j.path {
	case pathNVersion:
		fs = pm.pool
	case pathSparse:
		fs = pm.million
	}
	adj, err := engine.ResolveAdjudicator("", spec.Adjudicator, spec.Versions)
	if err != nil {
		return err
	}
	_, err = montecarlo.RunContext(ctx, montecarlo.Config{
		Process: devsim.NewIndependentProcess(fs), Versions: spec.Versions, Adjudicator: adj,
		Reps: spec.Reps, Workers: workers, Seed: spec.Seed,
		Streaming: spec.Streaming, Sparse: spec.Sparse, BatchWidth: spec.BatchWidth,
		Metrics: reg,
	})
	return err
}

// montecarloProbes runs every kernel path's job shape both straight
// through montecarlo and through an engine with its cache off, which
// separates kernel time from engine time, and measures allocations,
// shard balance, parallel scaling and the rare path's precision.
func montecarloProbes(ctx context.Context, pm probeModels, g generator, m *metrics, tr *tracer) error {
	reg := telemetry.NewRegistry()
	eng := engine.New(engine.Options{DisableCache: true, Telemetry: telemetry.NewRegistry()})
	var overheads, imbalance []float64
	var ms runtime.MemStats
	for p, path := range kernelPaths {
		var direct, viaEngine, allocs []float64
		for r := 0; r < probeRepeats; r++ {
			j := kernelJob(path, g.seedAt(streamProbe, uint64(p*probeRepeats+r)))
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			t0 := time.Now()
			if err := directRun(ctx, pm, j, kernelWorkers, reg); err != nil {
				return fmt.Errorf("montecarlo %s: %w", path, err)
			}
			t1 := time.Now()
			runtime.ReadMemStats(&ms)
			allocs = append(allocs, float64(ms.Mallocs-mallocs)/float64(j.reps))
			if _, err := eng.Run(ctx, j.job); err != nil {
				return fmt.Errorf("engine %s: %w", path, err)
			}
			t2 := time.Now()
			trace := fmt.Sprintf("probe-%s-%d", path, r)
			tr.record(trace, "montecarlo.run."+path, "", t0, t1)
			tr.record(trace, "engine.Run."+path, "", t1, t2)
			direct = append(direct, t1.Sub(t0).Seconds())
			viaEngine = append(viaEngine, t2.Sub(t1).Seconds())
			if path != pathRare {
				imbalance = append(imbalance, reg.Gauge("montecarlo.shard_imbalance").Value())
			}
		}
		m.set("montecarlo.run_s."+path, median(direct), "s")
		m.set("montecarlo.allocs_per_rep."+path, median(allocs), "allocs")
		overheads = append(overheads, 1e3*(median(viaEngine)-median(direct)))
	}
	var sum float64
	for _, o := range overheads {
		sum += o
	}
	m.set("engine.overhead_ms", sum/float64(len(overheads)), "ms")
	m.set("montecarlo.shard_imbalance", median(imbalance), "ratio")

	skips := reg.Counter("montecarlo.sparse_skips_total").Value()
	if err := directRun(ctx, pm, kernelJob(pathSparse, g.seedAt(streamProbe, 1<<20)), kernelWorkers, reg); err != nil {
		return err
	}
	m.set("montecarlo.sparse_skips_total", float64(reg.Counter("montecarlo.sparse_skips_total").Value()-skips), "count")

	// Scaling: the streaming path at nproc workers against one worker,
	// on a job large enough to amortise the shard start-up.
	var eff []float64
	for r := 0; r < 3; r++ {
		j := kernelJob(pathStream, g.seedAt(streamProbe, uint64(1<<21+r)))
		j.job.MonteCarlo.Reps = 200_000
		var secs [2]float64
		for w, workers := range []int{1, kernelWorkers} {
			t0 := time.Now()
			if err := directRun(ctx, pm, j, workers, nil); err != nil {
				return err
			}
			secs[w] = time.Since(t0).Seconds()
		}
		eff = append(eff, secs[0]/(kernelWorkers*secs[1]))
	}
	m.set("montecarlo.scaling_eff", median(eff), "ratio")

	var relSE, hitFrac []float64
	for r := 0; r < probeRepeats; r++ {
		re := kernelJob(pathRare, g.seedAt(streamProbe, uint64(1<<22+r))).job.RareEvent
		est, err := montecarlo.EstimateRareSystemFaultOpts(ctx, pm.safety, re.Versions, re.Reps, re.Seed, 0.3, montecarlo.RareOptions{Adjudicator: system.OneOutOfN{}})
		if err != nil {
			return err
		}
		relSE = append(relSE, est.StdErr/est.Probability)
		hitFrac = append(hitFrac, est.HitFraction)
	}
	m.set("montecarlo.rare_rel_se", median(relSE), "ratio")
	m.set("montecarlo.rare_hit_frac", median(hitFrac), "ratio")
	return nil
}

// engineProbes times the engine's per-job hashing and model resolve.
func engineProbes(g generator, m *metrics) error {
	jobs := make([]engine.Job, 256)
	for i := range jobs {
		jobs[i] = serviceJob(smallReps, g.seedAt(streamProbe, uint64(i)), -1).job
	}
	var err error
	m.set("engine.hash_ns", medianNs(len(jobs)*8, func() {
		for k := 0; k < 8; k++ {
			for _, j := range jobs {
				if _, e := j.Hash(); e != nil {
					err = e
				}
			}
		}
	}), "ns")
	model := jobs[0].MonteCarlo.Model
	const resolves = 64
	m.set("engine.resolve_ns", medianNs(resolves, func() {
		for i := 0; i < resolves; i++ {
			if _, _, e := model.Resolve(); e != nil {
				err = e
			}
		}
	}), "ns")
	return err
}

// storeProbes times Store.Put and Store.Update directly under both
// fsync policies, with records shaped like the server's.
func storeProbes(tmpRoot string, m *metrics) error {
	spec, err := json.Marshal(serviceJob(smallReps, 1, -1).job)
	if err != nil {
		return err
	}
	result := json.RawMessage(`{"jobId":"job-0000000000000000","fromCache":false,"montecarlo":{"reps":1000,"version":{"n":1000,"mean":0.01},"system":{"n":1000,"mean":0.005}}}`)
	for _, policy := range []string{store.FsyncAlways, store.FsyncOff} {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(tmpRoot, "store-"+policy+"-")
		if err != nil {
			return err
		}
		st, err := store.Open(store.Options{Dir: dir, Fsync: policy})
		if err != nil {
			return err
		}
		const records = 100
		now := time.Now()
		var seq uint64
		us := medianNs(2*records, func() {
			for i := 0; i < records; i++ {
				seq++
				id := fmt.Sprintf("s-%d", seq)
				if e := st.Put(store.JobRecord{ID: id, Seq: seq, Kind: "montecarlo", Spec: spec, Status: "queued", Submitted: now}); e != nil {
					err = e
				}
				if e := st.Update(store.Update{ID: id, Status: "done", Finished: now, Result: result}); e != nil {
					err = e
				}
			}
		}) / 1e3
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return fmt.Errorf("store probe (%s): %w", policy, err)
		}
		m.set("store.append_us."+policy, us, "us")
	}
	return nil
}
