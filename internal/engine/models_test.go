package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"diversity/internal/telemetry"
)

// newMemoEngine returns an engine with result caching off and a private
// model memo, so a test sees exactly its own memo traffic.
func newMemoEngine(reg *telemetry.Registry) *Engine {
	eng := New(Options{DisableCache: true, Telemetry: reg})
	eng.models = &modelMemo{}
	return eng
}

// resultJSON encodes a result without the per-call RunID, for
// byte-for-byte comparison of two runs of one job.
func resultJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	r := *res
	r.RunID = ""
	doc, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	return doc
}

// memoJobs covers every run path that resolves a model.
func memoJobs() map[string]Job {
	commercial := ModelSpec{Scenario: "commercial-grade", ScenarioSeed: 3}
	return map[string]Job{
		"buffered": NewMonteCarloJob(MonteCarloSpec{Model: commercial, Versions: 2, Reps: 2000, Workers: 2, Seed: 11}),
		"stream":   NewMonteCarloJob(MonteCarloSpec{Model: commercial, Versions: 2, Reps: 2000, Workers: 2, Seed: 11, Streaming: true}),
		"batch":    NewMonteCarloJob(MonteCarloSpec{Model: commercial, Versions: 2, Reps: 2000, Workers: 2, Seed: 11, Streaming: true, BatchWidth: 64}),
		"sparse": NewMonteCarloJob(MonteCarloSpec{
			Model:    ModelSpec{Scenario: "million-faults"},
			Versions: 2, Reps: 500, Workers: 2, Seed: 11, Streaming: true, Sparse: true,
		}),
		"correlated": NewMonteCarloJob(MonteCarloSpec{Model: commercial, Versions: 2, Reps: 2000, Workers: 2, Seed: 11, Correlation: 0.2, Boost: 3}),
		"2oo3": NewMonteCarloJob(MonteCarloSpec{
			Model:    ModelSpec{Scenario: "n-version-pool", ScenarioSeed: 2},
			Versions: 3, Adjudicator: "2oo3", Reps: 2000, Workers: 2, Seed: 11,
		}),
		"rare": NewRareEventJob(RareEventSpec{Model: ModelSpec{Scenario: "safety-grade", ScenarioSeed: 2}, Versions: 2, Reps: 2000, Seed: 11}),
		"analytic": NewAnalyticJob(AnalyticSpec{
			Model: ModelSpec{Scenario: "many-small-faults", ScenarioSeed: 1}, K: 1.5, Confidence: 0.99,
		}),
	}
}

// TestModelMemoColdWarmIdentical runs each job on a cold memo and again
// on the warm one: the results must be byte-identical and share one
// fault set, and the second run must be a memo hit.
func TestModelMemoColdWarmIdentical(t *testing.T) {
	t.Parallel()

	for name, job := range memoJobs() {
		reg := telemetry.NewRegistry()
		eng := newMemoEngine(reg)
		cold, err := eng.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: cold run: %v", name, err)
		}
		warm, err := eng.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("%s: warm run: %v", name, err)
		}
		if !bytes.Equal(resultJSON(t, cold), resultJSON(t, warm)) {
			t.Errorf("%s: warm-memo result differs from the cold-memo result", name)
		}
		if cold.FaultSet == nil || cold.FaultSet != warm.FaultSet {
			t.Errorf("%s: runs did not share the memoised fault set", name)
		}
		if hash, err := job.Hash(); err != nil || warm.Hash != hash {
			t.Errorf("%s: result hash %s, job hash %s (err %v)", name, warm.Hash, hash, err)
		}
		hits, misses := reg.Counter("engine.model_memo.hits").Value(), reg.Counter("engine.model_memo.misses").Value()
		if hits != 1 || misses != 1 {
			t.Errorf("%s: memo hits/misses = %d/%d, want 1/1", name, hits, misses)
		}
	}
}

// TestModelMemoConcurrentFirstRequests starts sparse and batch jobs over
// one scenario from 8 goroutines on a cold memo: the scenario must be
// generated exactly once, and every result must match a serial run.
func TestModelMemoConcurrentFirstRequests(t *testing.T) {
	t.Parallel()

	model := ModelSpec{Scenario: "commercial-grade", ScenarioSeed: 5}
	jobs := []Job{
		NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 3000, Workers: 2, Seed: 21, Streaming: true, Sparse: true}),
		NewMonteCarloJob(MonteCarloSpec{Model: model, Versions: 2, Reps: 3000, Workers: 2, Seed: 21, Streaming: true, BatchWidth: 64}),
	}
	serialEng := newMemoEngine(nil)
	serial := make([][]byte, len(jobs))
	for i, job := range jobs {
		res, err := serialEng.Run(context.Background(), job)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		serial[i] = resultJSON(t, res)
	}

	reg := telemetry.NewRegistry()
	eng := newMemoEngine(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"engine.model_memo.hits", "engine.model_memo.misses"} {
		if v, ok := snap.Counters[name]; !ok || v != 0 {
			t.Errorf("%s = %d (registered %v), want pre-registered at 0", name, v, ok)
		}
	}
	const goroutines = 8
	results := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = eng.Run(context.Background(), jobs[g%len(jobs)])
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(resultJSON(t, results[g]), serial[g%len(jobs)]) {
			t.Errorf("goroutine %d: result differs from the serial run", g)
		}
		if results[g].FaultSet != results[0].FaultSet {
			t.Errorf("goroutine %d: fault set not shared", g)
		}
	}
	if got := reg.Counter("engine.model_memo.misses").Value(); got != 1 {
		t.Errorf("memo misses = %d, want 1 (one generation)", got)
	}
	if got := reg.Counter("engine.model_memo.hits").Value(); got != goroutines-1 {
		t.Errorf("memo hits = %d, want %d", got, goroutines-1)
	}
}

// TestModelMemoBounded resolves more distinct seeds than the memo holds:
// it must stay at capacity, evicting least recently used models.
func TestModelMemoBounded(t *testing.T) {
	t.Parallel()

	memo := &modelMemo{}
	resolve := func(seed uint64) bool {
		t.Helper()
		_, hit, err := ModelSpec{Scenario: "safety-grade", ScenarioSeed: seed}.resolve(memo)
		if err != nil {
			t.Fatalf("resolve seed %d: %v", seed, err)
		}
		return hit
	}
	for seed := uint64(1); seed <= modelMemoSize+5; seed++ {
		if resolve(seed) {
			t.Errorf("seed %d: first resolve was a hit", seed)
		}
		if !resolve(1) {
			t.Errorf("seed 1 after seed %d: recently used model not kept", seed)
		}
	}
	if n := len(memo.entries); n != modelMemoSize {
		t.Errorf("memo holds %d models, want %d", n, modelMemoSize)
	}
	if resolve(2) {
		t.Error("seed 2 still memoised after more than a memo's worth of newer seeds")
	}
	if !resolve(modelMemoSize + 5) {
		t.Error("most recent seed evicted")
	}
}

// TestModelMemoSeedIgnoredShared: million-faults ignores its seed, so
// every seed shares one memo entry and one fault set.
func TestModelMemoSeedIgnoredShared(t *testing.T) {
	t.Parallel()

	memo := &modelMemo{}
	var first *resolvedModel
	for i, seed := range []uint64{0, 1, 7} {
		rm, hit, err := ModelSpec{Scenario: "million-faults", ScenarioSeed: seed}.resolve(memo)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if hit != (i > 0) {
			t.Errorf("seed %d: hit = %v, want %v", seed, hit, i > 0)
		}
		if first == nil {
			first = rm
		} else if rm != first {
			t.Errorf("seed %d: resolved a second million-faults model", seed)
		}
	}
	if len(memo.entries) != 1 {
		t.Errorf("memo holds %d models, want 1", len(memo.entries))
	}
	if first.name != "million-faults" || first.fs.N() != 1_000_000 {
		t.Errorf("resolved %q with %d faults", first.name, first.fs.N())
	}
}

// TestModelMemoInlineBypass: inline models are assembled per resolve and
// never enter the memo.
func TestModelMemoInlineBypass(t *testing.T) {
	t.Parallel()

	memo := &modelMemo{}
	spec := testModel(t)
	a, hitA, err := spec.resolve(memo)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	b, hitB, err := spec.resolve(memo)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if hitA || hitB || a == b || len(memo.entries) != 0 {
		t.Errorf("inline model memoised: hits %v/%v, same %v, entries %d", hitA, hitB, a == b, len(memo.entries))
	}
	if a.name != "unit" || a.fs.N() != 3 {
		t.Errorf("resolved %q with %d faults, want unit with 3", a.name, a.fs.N())
	}
}
