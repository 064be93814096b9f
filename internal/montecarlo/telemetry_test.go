package montecarlo

import (
	"context"
	"errors"
	"sync"
	"testing"

	"diversity/internal/telemetry"
)

// TestRunRecordsMetrics asserts a completed run publishes its
// throughput and shard measurements, and that enabling metrics does not
// perturb the sampled populations.
func TestRunRecordsMetrics(t *testing.T) {
	t.Parallel()

	const reps = 20_000
	reg := telemetry.NewRegistry()
	cfg := Config{Process: testProcess(t), Versions: 2, Reps: reps, Workers: 4, Seed: 3}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	cfg.Metrics = reg
	metered, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	for i := range plain.SystemPFD {
		if plain.SystemPFD[i] != metered.SystemPFD[i] {
			t.Fatalf("rep %d: metrics perturbed the run", i)
		}
	}

	if got := reg.Counter("montecarlo.replications_total").Value(); got != reps {
		t.Errorf("replications_total = %d, want %d", got, reps)
	}
	snap := reg.Snapshot()
	if rps := snap.Gauges["montecarlo.replications_per_second"]; rps <= 0 {
		t.Errorf("replications_per_second = %v, want > 0", rps)
	}
	imbalance, ok := snap.Gauges["montecarlo.shard_imbalance"]
	if !ok {
		t.Error("shard_imbalance gauge missing for a 4-worker run")
	} else if imbalance < 0 || imbalance > 1 {
		t.Errorf("shard_imbalance = %v, want within [0, 1]", imbalance)
	}
	if d := snap.Histograms["montecarlo.run_duration_seconds"]; d.Count != 1 {
		t.Errorf("run_duration observations = %d, want 1", d.Count)
	}
}

// TestRunRecordsShardSpans asserts a traced run opens one child span per
// worker shard under the provided parent.
func TestRunRecordsShardSpans(t *testing.T) {
	t.Parallel()

	tr := telemetry.NewTrace(telemetry.NewRunID(), "replications")
	cfg := Config{Process: testProcess(t), Versions: 2, Reps: 4_000, Workers: 3, Seed: 5, TraceSpan: tr.Root()}
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	tr.End()
	if got := len(tr.Snapshot().Root.Children); got != 3 {
		t.Errorf("recorded %d shard spans, want 3", got)
	}
}

// TestCancelledRunRecordsLatency asserts a cancelled run measures the
// latency between cancellation and the workers draining.
func TestCancelledRunRecordsLatency(t *testing.T) {
	t.Parallel()

	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := Config{
		Process:  testProcess(t),
		Versions: 2,
		Reps:     10_000_000,
		Workers:  4,
		Seed:     1,
		Progress: func(done, total int) { once.Do(cancel) },
		Metrics:  reg,
	}
	if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext: err = %v, want context.Canceled", err)
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["montecarlo.cancellation_latency_seconds"]; h.Count != 1 {
		t.Errorf("cancellation latency observations = %d, want 1", h.Count)
	}
}

// TestCancelledAtLastChunkRecordsLatency cancels from the final chunk's
// progress report, so the workers have already drained when the run
// stops its cancellation watcher: the context and the stop signal are
// both ready at once. The run must still record exactly one latency.
func TestCancelledAtLastChunkRecordsLatency(t *testing.T) {
	t.Parallel()

	for _, workers := range []int{1, 2} {
		reg := telemetry.NewRegistry()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{
			Process:  testProcess(t),
			Versions: 2,
			Reps:     100,
			Workers:  workers,
			Seed:     1,
			Progress: func(done, total int) {
				if done == total {
					cancel()
				}
			},
			Metrics: reg,
		}
		_, err := RunContext(ctx, cfg)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: RunContext: err = %v, want context.Canceled", workers, err)
		}
		if h := reg.Snapshot().Histograms["montecarlo.cancellation_latency_seconds"]; h.Count != 1 {
			t.Errorf("workers=%d: cancellation latency observations = %d, want 1", workers, h.Count)
		}
	}
}

// TestRareOptsProgressMonotonic asserts the estimators' progress
// contract directly: Done starts at 0, never decreases, includes
// intermediate counts past the context-check boundary, and ends at
// total.
func TestRareOptsProgressMonotonic(t *testing.T) {
	t.Parallel()

	fs := testProcess(t).FaultSet()
	const reps = 20_000
	check := func(t *testing.T, dones []int) {
		t.Helper()
		if len(dones) < 3 {
			t.Fatalf("progress reports = %v, want first/intermediate/final", dones)
		}
		if dones[0] != 0 || dones[len(dones)-1] != reps {
			t.Errorf("progress endpoints = %d..%d, want 0..%d", dones[0], dones[len(dones)-1], reps)
		}
		for i := 1; i < len(dones); i++ {
			if dones[i] < dones[i-1] {
				t.Fatalf("Done regressed: %v", dones)
			}
		}
	}

	var isDones []int
	opts := RareOptions{Progress: func(done, total int) { isDones = append(isDones, done) }}
	if _, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, reps, 1, 0.3, opts); err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	check(t, isDones)

	var naiveDones []int
	opts = RareOptions{Progress: func(done, total int) { naiveDones = append(naiveDones, done) }}
	if _, err := EstimateNaiveSystemFaultOpts(context.Background(), fs, 2, reps, 1, opts); err != nil {
		t.Fatalf("EstimateNaiveSystemFaultOpts: %v", err)
	}
	check(t, naiveDones)
}

// TestRareOptsMatchContextVariants: instrumentation must not change the
// estimates.
func TestRareOptsMatchContextVariants(t *testing.T) {
	t.Parallel()

	fs := testProcess(t).FaultSet()
	reg := telemetry.NewRegistry()
	opts := RareOptions{Progress: func(done, total int) {}, Metrics: reg}
	plain, err := EstimateRareSystemFaultContext(context.Background(), fs, 2, 10_000, 1, 0.3)
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultContext: %v", err)
	}
	metered, err := EstimateRareSystemFaultOpts(context.Background(), fs, 2, 10_000, 1, 0.3, opts)
	if err != nil {
		t.Fatalf("EstimateRareSystemFaultOpts: %v", err)
	}
	if plain != metered {
		t.Errorf("instrumented estimate %+v differs from plain %+v", metered, plain)
	}
	if got := reg.Counter("montecarlo.replications_total").Value(); got != 10_000 {
		t.Errorf("replications_total = %d, want 10000", got)
	}
}
