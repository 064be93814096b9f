package main

import (
	"hash/fnv"

	"diversity/internal/engine"
)

// Workload names, as passed to -workload.
const (
	kernelMix    = "kernel-mix"
	serveFresh   = "serve-fresh"
	fabricRepeat = "fabric-repeat"
)

// Scenario seeds are part of a job's shape, not of its randomness: every
// benchmark seed runs the same models, so set-up cost and the closed
// forms do not depend on -seed.
const (
	commercialSeed = 11
	poolSeed       = 12
	safetySeed     = 13
)

// Kernel paths: one Monte-Carlo execution path of the engine each.
const (
	pathBuffered = "mc_buffered"
	pathStream   = "mc_stream"
	pathBatch    = "mc_batch"
	pathNVersion = "nversion"
	pathSparse   = "sparse"
	pathRare     = "rare"
)

// kernelPaths is the kernel-mix cycle, in run order.
var kernelPaths = []string{pathBuffered, pathStream, pathBatch, pathNVersion, pathSparse, pathRare}

// kernelReps sizes each path's job so that every job of the cycle takes
// roughly the same wall time, about 10 ms at 2 workers on a 2-core
// x86-64 host, while the kernel does most of the work. Short jobs keep
// the per-path rates steady on a shared host: when it takes a vCPU
// away for a moment, only the few jobs running then slow down, and
// the rate reported is that of the jobs it left alone (see
// sustainedRate). The sparse job takes about 40 ms: every engine run
// of it also resolves the million-fault scenario, which takes about
// 25 ms, so fewer reps would time the resolve more than the kernel.
var kernelReps = map[string]int{
	pathBuffered: 5_000,
	pathStream:   10_000,
	pathBatch:    35_000,
	pathNVersion: 5_000,
	pathSparse:   16_000,
	pathRare:     38_000,
}

// Service job sizes.
const (
	smallReps = 1_000
	largeReps = 100_000
	// poolSize is the number of distinct specs fabric-repeat repeats.
	poolSize = 8
	// repeatEvery makes every repeatEvery-th fabric-repeat submission a
	// repeat of the pool. A cache hit answers in about 2 ms, a fresh
	// small job in about 5, so latencies fall into two clusters; with
	// one repeat in three, the median lies inside the fresh cluster,
	// not in the gap between the two, where it would jump from one
	// cluster's edge to the other's with every small shift in queueing.
	repeatEvery = 3
	// largeEvery makes every largeEvery-th fresh fabric-repeat job a
	// large one.
	largeEvery = 16
)

// kernelWorkers is the spec worker count of kernel-mix jobs: nproc of
// the 2-core reference host. It is a constant, not runtime.NumCPU, so
// job shapes (and hashes) do not depend on the host.
const kernelWorkers = 2

// genJob is one generated job: the spec the program sees, plus the
// shape facts the benchmark checks its output against.
type genJob struct {
	path   string // kernel path, or "service" for service jobs
	job    engine.Job
	reps   int
	repeat int // index into the repeat pool, or -1 for a fresh spec
}

// mix64 is the splitmix64 finaliser: a bijective scrambler that turns
// (seed, stream, index) coordinates into well-spread job seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// generator yields a workload's jobs. Job i is a pure function of the
// workload name, the benchmark seed and i: the shapes depend on the
// workload and i alone, the job seeds on all three.
type generator struct {
	workload string
	key      uint64
}

func newGenerator(workload string, seed uint64) generator {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return generator{workload: workload, key: mix64(seed ^ h.Sum64())}
}

// seedAt returns the job seed of stream s at index i.
func (g generator) seedAt(s, i uint64) uint64 {
	return mix64(g.key ^ mix64(s<<48^i))
}

// Job seed streams.
const (
	streamFresh = iota + 1
	streamPool
	streamWarm
	streamProbe
)

// kernelJob returns the job of a kernel path with the given seed.
func kernelJob(path string, seed uint64) genJob {
	reps := kernelReps[path]
	commercial := engine.ModelSpec{Scenario: "commercial-grade", ScenarioSeed: commercialSeed}
	mc := engine.MonteCarloSpec{Model: commercial, Versions: 2, Reps: reps, Workers: kernelWorkers, Seed: seed}
	switch path {
	case pathStream:
		mc.Streaming = true
	case pathBatch:
		mc.Streaming, mc.BatchWidth = true, 64
	case pathNVersion:
		mc.Model = engine.ModelSpec{Scenario: "n-version-pool", ScenarioSeed: poolSeed}
		mc.Versions, mc.Adjudicator, mc.Streaming = 3, "2oo3", true
	case pathSparse:
		mc.Model = engine.ModelSpec{Scenario: "million-faults"}
		mc.Streaming, mc.Sparse = true, true
	case pathRare:
		return genJob{path: path, reps: reps, repeat: -1, job: engine.NewRareEventJob(engine.RareEventSpec{
			Model:    engine.ModelSpec{Scenario: "safety-grade", ScenarioSeed: safetySeed},
			Versions: 2, Reps: reps, Seed: seed,
		})}
	}
	return genJob{path: path, reps: reps, repeat: -1, job: engine.NewMonteCarloJob(mc)}
}

// serviceJob returns a commercial-grade 1oo2 job with spec defaults.
func serviceJob(reps int, seed uint64, repeat int) genJob {
	return genJob{path: "service", reps: reps, repeat: repeat, job: engine.NewMonteCarloJob(engine.MonteCarloSpec{
		Model:    engine.ModelSpec{Scenario: "commercial-grade", ScenarioSeed: commercialSeed},
		Versions: 2, Reps: reps, Seed: seed,
	})}
}

// kernel returns job i of the kernel-mix cycle.
func (g generator) kernel(i int) genJob {
	return kernelJob(kernelPaths[i%len(kernelPaths)], g.seedAt(streamFresh, uint64(i)))
}

// service returns job i of a service workload: every serve-fresh job is
// a fresh small spec; fabric-repeat makes every repeatEvery-th job a
// repeat of the pool and the others fresh, every largeEvery-th fresh
// spec being large.
func (g generator) service(i int) genJob {
	if g.workload == fabricRepeat {
		if i%repeatEvery == 0 {
			return g.pool((i / repeatEvery) % poolSize)
		}
		reps := smallReps
		if fresh := i - i/repeatEvery - 1; fresh%largeEvery == largeEvery-1 {
			reps = largeReps
		}
		return serviceJob(reps, g.seedAt(streamFresh, uint64(i)), -1)
	}
	return serviceJob(smallReps, g.seedAt(streamFresh, uint64(i)), -1)
}

// pool returns repeat-pool spec k of fabric-repeat.
func (g generator) pool(k int) genJob {
	return serviceJob(smallReps, g.seedAt(streamPool, uint64(k)), k)
}
