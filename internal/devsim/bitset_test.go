package devsim

import (
	"math/bits"
	"testing"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.NumWords() != 3 {
		t.Fatalf("NumWords = %d, want 3", b.NumWords())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if b.Test(i) {
			t.Fatalf("fresh bitset has bit %d set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	if got := len(b.Touched()); got != 3 {
		t.Fatalf("Touched has %d words, want 3", got)
	}
	b.Reset()
	if b.Count() != 0 || len(b.Touched()) != 0 {
		t.Fatalf("Reset left Count=%d Touched=%d", b.Count(), len(b.Touched()))
	}
	for _, i := range []int{0, 63, 64, 129} {
		if b.Test(i) {
			t.Fatalf("bit %d survived Reset", i)
		}
	}
}

func TestBitsetTouchedDeduped(t *testing.T) {
	b := NewBitset(64)
	for i := 0; i < 64; i++ {
		b.Set(i)
	}
	if got := len(b.Touched()); got != 1 {
		t.Fatalf("64 sets in one word produced %d touched entries, want 1", got)
	}
}

func TestBitsetZeroLen(t *testing.T) {
	b := NewBitset(0)
	if b.Len() != 0 || b.NumWords() != 0 || b.Count() != 0 {
		t.Fatalf("zero-length bitset: Len=%d NumWords=%d Count=%d", b.Len(), b.NumWords(), b.Count())
	}
	b.Reset() // must not panic
}

// TestNewBitsetsIndependentAndAllocationFree: masks carved from one
// arena behave as separate NewBitset masks — filling one to its last
// word leaves its neighbours empty — and Set never allocates, because
// every touched list was sized for all of its mask's words.
func TestNewBitsetsIndependentAndAllocationFree(t *testing.T) {
	const n = 130
	sets := NewBitsets(n, 3)
	if len(sets) != 3 {
		t.Fatalf("NewBitsets returned %d masks, want 3", len(sets))
	}
	allocs := testing.AllocsPerRun(5, func() {
		sets[1].Reset()
		for i := 0; i < n; i++ {
			sets[1].Set(i)
		}
	})
	if allocs != 0 {
		t.Errorf("setting every bit of an arena mask allocated %v objects, want 0", allocs)
	}
	if got := sets[1].Count(); got != n {
		t.Errorf("Count = %d, want %d", got, n)
	}
	for _, i := range []int{0, 2} {
		if sets[i].Len() != n || sets[i].NumWords() != 3 {
			t.Fatalf("mask %d: Len=%d NumWords=%d, want %d and 3", i, sets[i].Len(), sets[i].NumWords(), n)
		}
		if sets[i].Count() != 0 || len(sets[i].Touched()) != 0 {
			t.Errorf("mask %d picked up its neighbour's bits: Count=%d Touched=%v", i, sets[i].Count(), sets[i].Touched())
		}
	}
	if got := NewBitsets(0, 2); len(got) != 2 || got[0].NumWords() != 0 {
		t.Errorf("zero-length arena: %d masks, %d words", len(got), got[0].NumWords())
	}
}

func TestBitsetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitset(-1) did not panic")
		}
	}()
	NewBitset(-1)
}

// boolIntersection is the reference []bool implementation the packed
// AND+popcount path must agree with.
func boolIntersection(fs *faultmodel.FaultSet, a, b []bool) (pfd float64, count int) {
	for i := range a {
		if a[i] && b[i] {
			pfd += fs.Fault(i).Q
			count++
		}
	}
	return pfd, count
}

// maskPair decodes a byte string into two equal-length []bool masks (low
// two bits of each byte drive one position each) and the Versions built
// from them.
func randomMaskPair(seed uint64, n int) (a, b []bool) {
	r := randx.NewStream(seed)
	a = make([]bool, n)
	b = make([]bool, n)
	// Word-at-a-time fill exercises FillUint64 alongside the bitset path.
	words := make([]uint64, (n+63)/64)
	r.FillUint64(words)
	for i := range a {
		a[i] = words[i>>6]>>(uint(i)&63)&1 == 1
	}
	r.FillUint64(words)
	for i := range b {
		b[i] = words[i>>6]>>(uint(i)&63)&1 == 1
	}
	return a, b
}

func TestCommonPFDAgainstBoolLoop(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 200, 1000} {
		fs := uniformFaultSet(t, n)
		for seed := uint64(1); seed <= 20; seed++ {
			am, bm := randomMaskPair(seed, n)
			a, b := newVersion(fs, am), newVersion(fs, bm)
			wantPFD, wantCount := boolIntersection(fs, am, bm)
			gotPFD, err := CommonPFD(fs, a, b)
			if err != nil {
				t.Fatalf("n=%d seed=%d: CommonPFD error: %v", n, seed, err)
			}
			if gotPFD != wantPFD {
				t.Fatalf("n=%d seed=%d: CommonPFD = %v, []bool loop = %v", n, seed, gotPFD, wantPFD)
			}
			gotCount, err := CommonFaultCount(fs, a, b)
			if err != nil {
				t.Fatalf("n=%d seed=%d: CommonFaultCount error: %v", n, seed, err)
			}
			if gotCount != wantCount {
				t.Fatalf("n=%d seed=%d: CommonFaultCount = %d, []bool loop = %d", n, seed, gotCount, wantCount)
			}
		}
	}
}

func uniformFaultSet(t testing.TB, n int) *faultmodel.FaultSet {
	t.Helper()
	fs, err := faultmodel.Uniform(n, 0.1, 0.5/float64(n))
	if err != nil {
		t.Fatalf("Uniform fault set: %v", err)
	}
	return fs
}

// FuzzBitsetIntersection feeds arbitrary mask bytes through both the
// packed AND+popcount path and the []bool reference loop and requires
// exact agreement, including the bitwise-identical PFD sum.
func FuzzBitsetIntersection(f *testing.F) {
	f.Add([]byte{0x03, 0x01, 0x02, 0xff}, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xaa, 0x55}, uint8(130))
	f.Fuzz(func(t *testing.T, raw []byte, size uint8) {
		n := int(size)
		if n == 0 {
			n = 1
		}
		fs := uniformFaultSet(t, n)
		am := make([]bool, n)
		bm := make([]bool, n)
		for i := 0; i < n; i++ {
			var c byte
			if len(raw) > 0 {
				c = raw[i%len(raw)]
			}
			am[i] = c>>(uint(i)%4)&1 == 1
			bm[i] = c>>(uint(i)%4+4)&1 == 1
		}
		a, b := newVersion(fs, am), newVersion(fs, bm)
		wantPFD, wantCount := boolIntersection(fs, am, bm)
		gotPFD, err := CommonPFD(fs, a, b)
		if err != nil {
			t.Fatalf("CommonPFD error: %v", err)
		}
		gotCount, err := CommonFaultCount(fs, a, b)
		if err != nil {
			t.Fatalf("CommonFaultCount error: %v", err)
		}
		if gotPFD != wantPFD || gotCount != wantCount {
			t.Fatalf("packed (pfd=%v count=%d) != []bool (pfd=%v count=%d)", gotPFD, gotCount, wantPFD, wantCount)
		}
		// The versions themselves must round-trip the masks.
		for i := range am {
			if a.Has(i) != am[i] || b.Has(i) != bm[i] {
				t.Fatalf("bit %d: Has mismatch", i)
			}
		}
		if popTotal(a) != a.FaultCount() {
			t.Fatalf("FaultCount %d != popcount %d", a.FaultCount(), popTotal(a))
		}
	})
}

func popTotal(v *Version) int {
	total := 0
	for w := 0; w < v.mask.NumWords(); w++ {
		total += bits.OnesCount64(v.mask.Word(w))
	}
	return total
}
