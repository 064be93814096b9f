package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"diversity/internal/engine"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		v, err := percentile(samples(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %v): err = %v, want ok = %v", c.n, c.p, err, c.ok)
		}
		if c.ok && v != float64(int(c.p*float64(c.n))) {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", c.n, c.p, v, int(c.p*float64(c.n)))
		}
	}
}

func TestSustainedRateIsNinetiethPercentile(t *testing.T) {
	rates := make([]float64, 20)
	for i := range rates {
		rates[i] = float64(20 - i)
	}
	if got := sustainedRate(rates); got != 19 {
		t.Errorf("sustainedRate = %v, want 19", got)
	}
}

// pooledJobsPerPath is how many jobs of each kernel path the smallest
// kernel phase of an end-to-end run pools: the kernel phase that ends a
// service workload's run of BENCHMARK.json's run_seconds.
func pooledJobsPerPath(t *testing.T) int {
	return jobBudget(kernelMix, time.Duration(secondaryShare*runSeconds(t)*float64(time.Second))).jobs / len(kernelPaths)
}

// runSeconds is BENCHMARK.json's run_seconds.
func runSeconds(t *testing.T) float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.RunSeconds
}

// TestGateFlagsBias runs each Monte-Carlo path's job with as many
// replications as one run pools for it: its means must pass the gate.
// The mean version PFD of a single job biased by 10%, or 0, must fail
// it; so a kernel that returns 0 fails on every job. So must the
// pooled mean system PFD biased by 10% on every dense path. On the
// million-fault path the phase sees only some fifty system faults, too
// few to tell a 10% bias, or even 0, from chance, but ten times the
// truth must fail.
func TestGateFlagsBias(t *testing.T) {
	jobs := pooledJobsPerPath(t)
	k, err := setupKernel(context.Background(), newGenerator(kernelMix, 1))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{DisableCache: true})
	for _, path := range kernelPaths {
		if path == pathRare {
			continue
		}
		ref := k.refs[path]
		reps := jobs * kernelReps[path]
		t.Logf("%s: %d jobs pooled over %d reps: closed form %.4g, tolerance %.3g", path, jobs, reps, ref.mean, ref.tolerance(reps))
		j := kernelJob(path, 99)
		j.job.MonteCarlo.Reps, j.reps = reps, reps
		res, err := eng.Run(context.Background(), j.job)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := k.check(j, res); err != nil {
			t.Errorf("%s: correct job of %d reps rejected: %v", path, reps, err)
		}
		short := j
		short.reps++
		if _, _, err := k.check(short, res); err == nil {
			t.Errorf("%s: check passed a job that ran the wrong number of reps", path)
		}
		ver := k.versions[path]
		for _, bias := range []float64{0, 0.9, 1.1} {
			if err := ver.checkMean(bias*ver.mean, kernelReps[path]); err == nil {
				t.Errorf("%s: one job's mean version PFD scaled by %v passed (closed form %v, tolerance %v)",
					path, bias, ver.mean, ver.tolerance(kernelReps[path]))
			}
		}
		biases := []float64{0.9, 1.1}
		if path == pathSparse {
			biases = []float64{10}
		}
		for _, bias := range biases {
			var p pooled
			for i := 0; i < jobs; i++ {
				p.add(bias*ref.mean, 0, kernelReps[path])
			}
			if err := k.checkPooled(path, &p); err == nil {
				t.Errorf("%s: %d jobs pooled over %d reps passed with their mean scaled by %v (closed form %v, tolerance %v)",
					path, jobs, reps, bias, ref.mean, ref.tolerance(reps))
			}
		}
	}
}

// TestServiceGateFlagsBias pools the fresh jobs of the smallest service
// phase of a run, as generated: the closed form biased by 10% must
// fail.
func TestServiceGateFlagsBias(t *testing.T) {
	fs, adj, err := resolveModel(serviceJob(smallReps, 0, -1).job.MonteCarlo.Model, "", 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newPFDRef(fs, adj, 2)
	if err != nil {
		t.Fatal(err)
	}
	secs := runSeconds(t)
	for _, w := range []string{serveFresh, fabricRepeat} {
		g := newGenerator(w, 1)
		var p pooled
		for i := 0; i < jobBudget(w, time.Duration(secondaryShare*secs*float64(time.Second))).jobs; i++ {
			if j := g.service(i); j.repeat < 0 {
				p.add(ref.mean, 0, j.reps)
			}
		}
		t.Logf("%s: %d fresh jobs pooled over %d reps: tolerance %.3g of %.4g", w, p.jobs, p.reps, ref.tolerance(p.reps), ref.mean)
		for _, bias := range []float64{0.9, 1.1} {
			if err := ref.checkMean(bias*p.mean(), p.reps); err == nil {
				t.Errorf("%s: %d fresh jobs pooled with their mean scaled by %v passed", w, p.jobs, bias)
			}
		}
	}
}

// TestGateFlagsBiasedRareEstimate pools the rare path's estimates over
// one run's jobs: the closed form must pass, and the closed form
// biased by 10% must fail.
func TestGateFlagsBiasedRareEstimate(t *testing.T) {
	jobs := pooledJobsPerPath(t)
	j := kernelJob(pathRare, 99)
	res, err := engine.New(engine.Options{DisableCache: true}).Run(context.Background(), j.job)
	if err != nil {
		t.Fatal(err)
	}
	re := res.RareEvent
	k := &kernelBench{rareClosed: re.ClosedForm}
	if _, _, err := k.check(j, res); err != nil {
		t.Errorf("correct rare job rejected: %v", err)
	}
	for _, bias := range []float64{0.9, 1, 1.1} {
		var p pooled
		for i := 0; i < jobs; i++ {
			p.add(bias*re.ClosedForm, re.ImportanceSampling.StdErr, j.reps)
		}
		if err := k.checkPooled(pathRare, &p); (err == nil) != (bias == 1) {
			t.Errorf("%d rare estimates pooled with bias %v: err = %v", jobs, bias, err)
		}
	}
}

func TestGateFlagsBiasedEstimate(t *testing.T) {
	const closed, se = 1e-3, 1e-5
	if err := checkEstimate(closed+2*se, se, closed); err != nil {
		t.Errorf("estimate two SEs off rejected: %v", err)
	}
	if err := checkEstimate(1.1*closed, se, closed); err == nil {
		t.Error("estimate biased by 10% passed the gate")
	}
	if err := checkEstimate(closed, 0, closed); err == nil {
		t.Error("estimate without a standard error passed the gate")
	}
}

// TestGateToleratesRareFailures checks the skew term: with a million
// faults a kernel-mix sparse job sees a system fault in fewer than one
// replication in ten thousand, where one extra fault is many standard
// errors.
func TestGateToleratesRareFailures(t *testing.T) {
	ref := pfdRef{mean: 1e-13, vari: 1e-16 * 1e-5, qmax: 1e-8}
	reps := kernelReps[pathSparse]
	three := 3 * ref.qmax / float64(reps)
	if err := ref.checkMean(three, reps); err != nil {
		t.Errorf("three system faults rejected: %v", err)
	}
}
