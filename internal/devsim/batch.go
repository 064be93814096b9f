package devsim

import (
	"math"

	"diversity/internal/randx"
)

// BatchDeveloper is an optional Process extension for the batched
// replication kernel. DevelopBatch overwrites each column in cols
// (clearing any stale state) with one independent development, visiting
// the faults in fault-major order: every fault draws its Bernoulli
// variates for all columns as a batch — fused draw-and-compare
// randx.Stream.Hits calls for the independent process, a
// randx.Stream.FillUint64 batch threshold-compared branchlessly (see
// BernoulliThreshold) for the correlated processes — into per-fault
// lane masks, and a final 64×64 bit transpose scatters the fault-major
// masks into the per-replication bitset columns. That amortizes the RNG
// call and the per-fault probability lookup across the whole tile and
// keeps the hot loop free of both branches (random hit patterns would
// mispredict heavily) and scattered memory writes.
//
// scratch is caller-owned space of length >= BatchScratchLen(len(cols),
// n): draw lanes, latent-coin lanes (common-cause day, resource-shift
// pair), and the fault-major mask rows the transpose reads. Reusing one
// scratch slice across calls keeps the steady state allocation-free.
//
// Like SparseDeveloper's contract, DevelopBatch consumes the stream in
// its own (fault-major) order, so for a given seed it produces a
// different — but distributionally identical — sample than Develop's
// replication-major order. Implementations must be safe for concurrent
// use from multiple goroutines with distinct streams and columns.
type BatchDeveloper interface {
	DevelopBatch(r *randx.Stream, cols []*Bitset, scratch []uint64)
}

// Every shipped process supports the batched kernel.
var (
	_ BatchDeveloper = (*IndependentProcess)(nil)
	_ BatchDeveloper = (*CommonCauseProcess)(nil)
	_ BatchDeveloper = (*ResourceShiftProcess)(nil)
	_ BatchDeveloper = (*TiedPairsProcess)(nil)
)

// BatchScratchLen returns the scratch length DevelopBatch requires for a
// tile of the given width over a universe of n faults: width draw lanes,
// width latent-coin lanes, and n rows of ceil(width/64) fault-major mask
// words.
func BatchScratchLen(width, n int) int {
	return 2*width + n*((width+63)/64)
}

// BernoulliThreshold maps a presence probability to the integer
// threshold T such that, for a 64-bit draw u,
//
//	u>>11 < T  ⟺  float64(u>>11) * 0x1p-53 < p  ⟺  Stream.Float64() < p.
//
// The equivalence is exact: p*2^53 is an exact float64 product for
// p ∈ [0, 1] (a pure exponent shift cannot round), u>>11 < 2^53 is
// exactly representable, and an integer u is below a real bound x iff
// it is below ceil(x). p = 0 yields T = 0 (never true) and p = 1 yields
// T = 2^53 (always true), matching BernoulliValidated.
func BernoulliThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * 0x1p53))
}

// hitBit returns 1 when draw u clears threshold t (Float64() < p), else
// 0, without a branch: both u>>11 and t are below 2^53, so u>>11 - t is
// negative exactly on a hit and the wrapped difference carries that sign
// in its top bit.
func hitBit(u, t uint64) uint64 {
	return (u>>11 - t) >> 63
}

// batchLayout slices one scratch arena into the kernel's three regions.
func batchLayout(scratch []uint64, width, n int) (d, aux, rows []uint64) {
	g := (width + 63) / 64
	return scratch[:width], scratch[width : 2*width], scratch[2*width : 2*width+n*g]
}

// maskRow threshold-compares one fault's draw lanes into its mask row:
// bit j of rows[k] is the hit for column 64*k + j.
func maskRow(d []uint64, t uint64, rows []uint64) {
	for k := range rows {
		lanes := d[k*64:]
		if len(lanes) > 64 {
			lanes = lanes[:64]
		}
		var m uint64
		for j, u := range lanes {
			m |= hitBit(u, t) << uint(j)
		}
		rows[k] = m
	}
}

// zeroRow clears one fault's mask row (used for skipped p = 0 faults,
// whose rows would otherwise carry a previous tile's hits).
func zeroRow(rows []uint64) {
	for k := range rows {
		rows[k] = 0
	}
}

// transpose64 transposes a 64×64 bit matrix in place: bit j of word k
// moves to bit k of word j (LSB-first in both dimensions). Standard
// recursive block-swap, 6 rounds of masked exchanges.
func transpose64(a *[64]uint64) {
	j := uint(32)
	m := uint64(0x00000000FFFFFFFF)
	for j != 0 {
		for k := 0; k < 64; k = (k + int(j) + 1) &^ int(j) {
			t := ((a[k] >> j) ^ a[k+int(j)]) & m
			a[k] ^= t << j
			a[k+int(j)] ^= t
		}
		j >>= 1
		m ^= m << j
	}
}

// scatterRows transposes the fault-major mask rows into the
// replication-major columns, overwriting every word of every column and
// rebuilding the touched lists — which both clears stale state and
// restores the Bitset O(touched) contract for the evaluation kernels.
func scatterRows(rows []uint64, cols []*Bitset, n int) {
	width := len(cols)
	g := (width + 63) / 64
	var blk [64]uint64
	for wb := 0; wb*64 < n; wb++ { // fault word block
		lo := wb * 64
		hi := lo + 64
		if hi > n {
			hi = n
		}
		for k := 0; k < g; k++ { // column lane group
			for i := lo; i < hi; i++ {
				blk[i-lo] = rows[i*g+k]
			}
			for i := hi - lo; i < 64; i++ {
				blk[i] = 0
			}
			transpose64(&blk)
			jmax := width - k*64
			if jmax > 64 {
				jmax = 64
			}
			for j := 0; j < jmax; j++ {
				cols[k*64+j].words[wb] = blk[j]
			}
		}
	}
	for _, col := range cols {
		col.touched = col.touched[:0]
		for wi, word := range col.words {
			if word != 0 {
				col.touched = append(col.touched, int32(wi))
			}
		}
	}
}

// bernoulliThresholds builds the per-fault integer thresholds once.
func (p *IndependentProcess) bernoulliThresholds() []uint64 {
	p.thresholdOnce.Do(func() {
		p.thresholds = make([]uint64, p.fs.N())
		for i := range p.thresholds {
			p.thresholds[i] = BernoulliThreshold(p.fs.Fault(i).P)
		}
	})
	return p.thresholds
}

// DevelopBatch implements BatchDeveloper: each fault's lane masks come
// from fused randx.Stream.Hits calls against the fault's precomputed
// threshold — the Bernoulli compare happens while each draw is still in
// a register, and each 64-bit variate supplies two exactly-distributed
// lanes, so the per-fault inner loop runs at half the generator's
// element-wise speed with no intermediate draw buffer. Faults with
// p = 0 are skipped without consuming variates.
func (p *IndependentProcess) DevelopBatch(r *randx.Stream, cols []*Bitset, scratch []uint64) {
	n := p.fs.N()
	width := len(cols)
	_, _, rows := batchLayout(scratch, width, n)
	g := (width + 63) / 64
	for i, t := range p.bernoulliThresholds() {
		row := rows[i*g : i*g+g]
		if t == 0 {
			zeroRow(row)
			continue
		}
		rem := width
		for k := range row {
			c := rem
			if c > 64 {
				c = 64
			}
			row[k] = r.Hits(t, c)
			rem -= c
		}
	}
	scatterRows(rows, cols, n)
}

// batchThresholds builds the good-day and bad-day per-fault thresholds
// once.
func (p *CommonCauseProcess) batchThresholds() ([]uint64, []uint64) {
	p.batchOnce.Do(func() {
		p.thrHi = make([]uint64, len(p.hi))
		p.thrLo = make([]uint64, len(p.lo))
		for i := range p.hi {
			p.thrHi[i] = BernoulliThreshold(p.hi[i])
			p.thrLo[i] = BernoulliThreshold(p.lo[i])
		}
	})
	return p.thrHi, p.thrLo
}

// coinMasks draws one batch of latent coins and packs the comparisons
// against thr into per-group lane masks, stored in aux's leading words.
// The packing overwrites raw coins in place; it only writes aux[k] after
// group k's raw values (aux[64k:64k+64)) have been consumed, and k <
// 64(k+1) keeps the writes clear of every later group's raw values. No
// draw happens when thr == 0 (the masks are all zero), mirroring how
// Bernoulli skips degenerate probabilities.
func coinMasks(r *randx.Stream, aux []uint64, g int, thr uint64) []uint64 {
	if thr == 0 {
		for k := 0; k < g; k++ {
			aux[k] = 0
		}
		return aux[:g]
	}
	r.FillUint64(aux)
	for k := 0; k < g; k++ {
		lanes := aux[k*64:]
		if len(lanes) > 64 {
			lanes = lanes[:64]
		}
		var m uint64
		for j, u := range lanes {
			m |= hitBit(u, thr) << uint(j)
		}
		aux[k] = m
	}
	return aux[:g]
}

// DevelopBatch implements BatchDeveloper. One batch of "bad day" coins
// is drawn per tile (only when rho > 0, like Bernoulli skips degenerate
// draws) and packed into lane masks; each fault then blends its bad-day
// and good-day comparisons through that mask.
func (p *CommonCauseProcess) DevelopBatch(r *randx.Stream, cols []*Bitset, scratch []uint64) {
	n := len(p.hi)
	d, aux, rows := batchLayout(scratch, len(cols), n)
	g := (len(cols) + 63) / 64
	var thrRho uint64
	if p.rho > 0 {
		thrRho = BernoulliThreshold(p.rho)
	}
	day := coinMasks(r, aux, g, thrRho)
	thrHi, thrLo := p.batchThresholds()
	for i := range thrHi {
		tHi, tLo := thrHi[i], thrLo[i]
		row := rows[i*g : i*g+g]
		if tHi == 0 { // p_i == 0: lo <= hi, neither day can set the bit
			zeroRow(row)
			continue
		}
		r.FillUint64(d)
		for k := range row {
			lanes := d[k*64:]
			if len(lanes) > 64 {
				lanes = lanes[:64]
			}
			var mLo, mHi uint64
			for j, u := range lanes {
				mLo |= hitBit(u, tLo) << uint(j)
				mHi |= hitBit(u, tHi) << uint(j)
			}
			row[k] = (mHi & day[k]) | (mLo &^ day[k])
		}
	}
	scatterRows(rows, cols, n)
}

// batchThresholds builds the favoured/neglected per-fault thresholds
// once. The trailing unpaired fault (odd n) stores its plain threshold
// in both slots.
func (p *ResourceShiftProcess) batchThresholds() ([]uint64, []uint64) {
	p.batchOnce.Do(func() {
		n := p.fs.N()
		p.thrFav = make([]uint64, n)
		p.thrNeg = make([]uint64, n)
		for i := 0; i < n; i++ {
			pi := p.fs.Fault(i).P
			if i == n-1 && n%2 == 1 {
				p.thrFav[i] = BernoulliThreshold(pi)
				p.thrNeg[i] = p.thrFav[i]
				continue
			}
			p.thrFav[i] = BernoulliThreshold(pi * (1 - p.shift))
			p.thrNeg[i] = BernoulliThreshold(pi * (1 + p.shift))
		}
	})
	return p.thrFav, p.thrNeg
}

// halfThreshold is BernoulliThreshold(0.5): the fair coin deciding which
// member of a resource pair is favoured.
const halfThreshold = 1 << 52

// DevelopBatch implements BatchDeveloper. Each pair draws one batch of
// fair coins packed into lane masks choosing the favoured member per
// column, then one batch per member blending the favoured and neglected
// comparisons through that mask. The trailing unpaired fault of an odd
// universe draws at its plain probability with no coin.
func (p *ResourceShiftProcess) DevelopBatch(r *randx.Stream, cols []*Bitset, scratch []uint64) {
	n := p.fs.N()
	d, aux, rows := batchLayout(scratch, len(cols), n)
	g := (len(cols) + 63) / 64
	thrFav, thrNeg := p.batchThresholds()
	for pair := 0; pair+1 < n; pair += 2 {
		coin := coinMasks(r, aux, g, halfThreshold)
		for offset := 0; offset < 2; offset++ {
			i := pair + offset
			tFav, tNeg := thrFav[i], thrNeg[i]
			row := rows[i*g : i*g+g]
			if tNeg == 0 { // p_i == 0 either way
				zeroRow(row)
				continue
			}
			r.FillUint64(d)
			for k := range row {
				lanes := d[k*64:]
				if len(lanes) > 64 {
					lanes = lanes[:64]
				}
				var mFav, mNeg uint64
				for j, u := range lanes {
					mFav |= hitBit(u, tFav) << uint(j)
					mNeg |= hitBit(u, tNeg) << uint(j)
				}
				// A heads coin favours the first member (offset 0).
				sel := coin[k]
				if offset == 1 {
					sel = ^sel
				}
				row[k] = (mFav & sel) | (mNeg &^ sel)
			}
		}
	}
	if n%2 == 1 {
		i := n - 1
		row := rows[i*g : i*g+g]
		if t := thrFav[i]; t != 0 {
			r.FillUint64(d)
			maskRow(d, t, row)
		} else {
			zeroRow(row)
		}
	}
	scatterRows(rows, cols, n)
}

// batchThresholds builds the per-fault thresholds once; only driver
// indices (the smaller of each pair, and untied faults) are consulted.
func (p *TiedPairsProcess) batchThresholds() []uint64 {
	p.batchOnce.Do(func() {
		p.thresholds = make([]uint64, p.fs.N())
		for i := range p.thresholds {
			p.thresholds[i] = BernoulliThreshold(p.fs.Fault(i).P)
		}
	})
	return p.thresholds
}

// DevelopBatch implements BatchDeveloper. Each pair's driver (smaller
// index) draws one batch; the hit mask is written to both members' rows,
// exactly like the dense path's single shared coin. The fault-major row
// layout makes the tie a plain copy.
func (p *TiedPairsProcess) DevelopBatch(r *randx.Stream, cols []*Bitset, scratch []uint64) {
	n := p.fs.N()
	d, _, rows := batchLayout(scratch, len(cols), n)
	g := (len(cols) + 63) / 64
	thr := p.batchThresholds()
	for i := 0; i < n; i++ {
		partner := p.pairOf[i]
		if partner >= 0 && partner < i {
			continue // the partner's draw already wrote this row
		}
		row := rows[i*g : i*g+g]
		t := thr[i]
		if t == 0 {
			zeroRow(row)
			if partner > i {
				zeroRow(rows[partner*g : partner*g+g])
			}
			continue
		}
		r.FillUint64(d)
		maskRow(d, t, row)
		if partner > i {
			copy(rows[partner*g:partner*g+g], row)
		}
	}
	scatterRows(rows, cols, n)
}
