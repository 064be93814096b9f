package randx_test

import (
	"math"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/randx"
)

// refMask draws one BernoulliValidated outcome per probability: the
// element-wise sequence BernoulliMask must reproduce.
func refMask(r *randx.Stream, ps []float64) []bool {
	out := make([]bool, len(ps))
	for i, p := range ps {
		out[i] = r.BernoulliValidated(p)
	}
	return out
}

// assertMaskMatchesReference fills a mask from thresholds on one stream
// and replays BernoulliValidated on a twin stream, then requires equal
// masks and equal next draws (the fill consumed exactly len(ps) values).
func assertMaskMatchesReference(t *testing.T, seed uint64, ps []float64) {
	t.Helper()
	thr := make([]uint64, len(ps))
	for i, p := range ps {
		thr[i] = devsim.BernoulliThreshold(p)
	}
	got := make([]bool, len(ps))
	fill, ref := randx.NewStream(seed), randx.NewStream(seed)
	fill.BernoulliMask(thr, got)
	want := refMask(ref, ps)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d, element %d (p=%v): mask %v, BernoulliValidated %v", seed, i, ps[i], got[i], want[i])
		}
	}
	if a, b := fill.Uint64(), ref.Uint64(); a != b {
		t.Fatalf("seed %d, %d elements: next draw %#x after the fill, %#x after the reference", seed, len(ps), a, b)
	}
}

// TestBernoulliMaskMatchesBernoulliValidated covers the probabilities
// where an integer threshold could plausibly disagree with the float
// compare — the endpoints, the smallest normal and subnormal steps, and
// exact multiples of 2^-53 nudged by one ulp — at lengths 0, 1 and 1000,
// each both as a constant vector and mixed with random probabilities.
func TestBernoulliMaskMatchesBernoulliValidated(t *testing.T) {
	t.Parallel()

	k := 12345 * 0x1p-53
	edges := []float64{
		0, 1, 0x1p-53, 5e-324, 1e-310,
		k, math.Nextafter(k, 0), math.Nextafter(k, 1),
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.Nextafter(1, 0),
	}
	rng := randx.NewStream(99)
	for _, n := range []int{0, 1, 1000} {
		for _, p := range append(edges, rng.Float64()) {
			ps := make([]float64, n)
			for i := range ps {
				ps[i] = p
			}
			assertMaskMatchesReference(t, uint64(n)+1, ps)
		}
		mixed := make([]float64, n)
		for i := range mixed {
			if i%2 == 0 {
				mixed[i] = edges[(i/2)%len(edges)]
			} else {
				mixed[i] = rng.Float64()
			}
		}
		assertMaskMatchesReference(t, 7, mixed)
	}
}

// TestBernoulliMaskDrawTies puts every threshold on the draw it meets:
// with p_i = (u_i>>11)·2^-53 for the i-th upcoming draw u_i the compare
// is an exact tie (a miss), and one ulp above it must hit. Random
// probabilities almost never land this close, so the ties are built from
// a peek at the stream.
func TestBernoulliMaskDrawTies(t *testing.T) {
	t.Parallel()

	const n, seed = 1000, 5
	peek := randx.NewStream(seed)
	ps := make([]float64, n)
	wantHit := make([]bool, n)
	for i := range ps {
		tie := float64(peek.Uint64()>>11) * 0x1p-53
		switch i % 3 {
		case 0:
			ps[i] = tie
		case 1:
			ps[i], wantHit[i] = math.Nextafter(tie, 2), true
		default:
			ps[i] = math.Nextafter(tie, -1)
			if ps[i] < 0 {
				ps[i] = 0
			}
		}
	}
	assertMaskMatchesReference(t, seed, ps)
	thr := make([]uint64, n)
	for i, p := range ps {
		thr[i] = devsim.BernoulliThreshold(p)
	}
	got := make([]bool, n)
	randx.NewStream(seed).BernoulliMask(thr, got)
	for i := range got {
		if got[i] != wantHit[i] {
			t.Fatalf("element %d (p=%v): hit %v, want %v", i, ps[i], got[i], wantHit[i])
		}
	}
}

// FuzzBernoulliMask drives the fill against the element-wise reference
// over fuzzed seeds, lengths and probability vectors.
func FuzzBernoulliMask(f *testing.F) {
	f.Add(uint64(1), uint16(1000), uint64(0))
	f.Add(uint64(42), uint16(1), ^uint64(0))
	f.Add(uint64(7), uint16(0), uint64(1<<52))
	f.Fuzz(func(t *testing.T, seed uint64, length uint16, pSeed uint64) {
		n := int(length % 1100)
		gen := randx.NewStream(pSeed)
		ps := make([]float64, n)
		for i := range ps {
			switch gen.IntN(4) {
			case 0:
				ps[i] = gen.Float64()
			case 1:
				ps[i] = float64(gen.IntN(3)) * 0x1p-53 // 0, 2^-53, 2^-52
			case 2:
				ps[i] = math.Nextafter(gen.Float64(), 1)
			default:
				ps[i] = float64(gen.IntN(2)) // 0 or 1
			}
		}
		assertMaskMatchesReference(t, seed, ps)
	})
}
