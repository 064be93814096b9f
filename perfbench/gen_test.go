package main

import (
	"encoding/json"
	"testing"
)

// specOf encodes a generated job, optionally with its seed cleared so
// that only its shape remains.
func specOf(t *testing.T, j genJob, shapeOnly bool) string {
	t.Helper()
	job := j.job
	if shapeOnly {
		if mc := job.MonteCarlo; mc != nil {
			c := *mc
			c.Seed = 0
			job.MonteCarlo = &c
		}
		if re := job.RareEvent; re != nil {
			c := *re
			c.Seed = 0
			job.RareEvent = &c
		}
	}
	data, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func generated(g generator, workload string, i int) genJob {
	if workload == kernelMix {
		return g.kernel(i)
	}
	return g.service(i)
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, w := range []string{kernelMix, serveFresh, fabricRepeat} {
		a, b, other := newGenerator(w, 7), newGenerator(w, 7), newGenerator(w, 8)
		seeds := make(map[string]bool)
		for i := 0; i < 64; i++ {
			ja, jb, jo := generated(a, w, i), generated(b, w, i), generated(other, w, i)
			if specOf(t, ja, false) != specOf(t, jb, false) {
				t.Fatalf("%s job %d differs between two generators of seed 7", w, i)
			}
			if specOf(t, ja, true) != specOf(t, jo, true) || ja.reps != jo.reps || ja.repeat != jo.repeat {
				t.Fatalf("%s job %d has another shape under seed 8", w, i)
			}
			if ja.repeat < 0 && specOf(t, ja, false) == specOf(t, jo, false) {
				t.Fatalf("%s fresh job %d has the same seed under seeds 7 and 8", w, i)
			}
			seeds[specOf(t, ja, false)] = true
		}
		if w != fabricRepeat && len(seeds) != 64 {
			t.Errorf("%s: %d distinct specs in 64 jobs, want every one fresh", w, len(seeds))
		}
	}
}

func TestFabricRepeatMix(t *testing.T) {
	g := newGenerator(fabricRepeat, 1)
	repeats, large := 0, 0
	const n = repeatEvery * poolSize * largeEvery
	const fresh = n - n/repeatEvery
	for i := 0; i < n; i++ {
		j := g.service(i)
		if j.repeat >= 0 {
			repeats++
			if specOf(t, j, false) != specOf(t, g.pool(j.repeat), false) {
				t.Fatalf("job %d is not pool spec %d", i, j.repeat)
			}
		}
		if j.reps == largeReps {
			large++
		}
	}
	if repeats != n/repeatEvery || large != fresh/largeEvery {
		t.Errorf("%d repeats and %d large jobs in %d, want %d and %d", repeats, large, n, n/repeatEvery, fresh/largeEvery)
	}
}
