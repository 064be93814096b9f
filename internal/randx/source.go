// Package randx provides deterministic, splittable pseudo-random number
// streams and samplers for the probability distributions used throughout the
// library.
//
// The Monte-Carlo experiments in this repository must be reproducible (same
// seed, same results) and parallelisable (independent streams per worker).
// The package therefore implements its own generators — SplitMix64 for
// seeding and stream derivation, xoshiro256** for bulk generation — rather
// than relying on the process-global math/rand state.
package randx

import "math/bits"

// splitMix64 advances a SplitMix64 state and returns the next value.
//
// SplitMix64 (Steele, Lea, Flood; "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014) is used for seeding xoshiro256** state and for
// deriving independent sub-streams, as recommended by the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** 1.0 pseudo-random generator
// (Blackman & Vigna, 2018). It has a period of 2^256-1, passes BigCrush, and
// is far faster than crypto-grade generators, which matters for the
// 10^6-10^8 variate Monte-Carlo runs in the experiment harness.
//
// Source is not safe for concurrent use; derive one Source per goroutine
// with Split.
type Source struct {
	s [4]uint64
}

// NewSource returns a Source seeded from seed via SplitMix64, following the
// initialisation procedure recommended by the xoshiro authors. Distinct
// seeds give statistically independent streams.
func NewSource(seed uint64) *Source {
	src := &Source{}
	sm := seed
	for i := range src.s {
		src.s[i] = splitMix64(&sm)
	}
	// An all-zero state is a fixed point of xoshiro; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway for clarity.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return src
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9

	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)

	return result
}

// Fill overwrites dst with the next len(dst) values of the stream,
// exactly as repeated Uint64 calls would produce them. The generator
// state is copied into locals for the duration of the loop, so the
// compiler keeps it in registers instead of reloading four words from
// memory per draw — the difference between ~3 ns and ~1 ns per variate,
// which is what makes bulk-filling worthwhile for the batched
// Monte-Carlo kernel.
func (s *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9

		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
}

// BernoulliMask overwrites dst with len(dst) Bernoulli outcomes, dst[i]
// true exactly when the i-th draw u satisfies u>>11 < t[i]. It draws the
// same values as len(dst) Uint64 calls and, like Fill, keeps the
// generator state in locals for the whole loop, so each compare happens
// while its draw is still in a register. With t[i] the 53-bit threshold
// ceil(p_i * 2^53), dst[i] equals Float64() < p_i draw for draw. t must
// hold at least len(dst) thresholds.
func (s *Source) BernoulliMask(t []uint64, dst []bool) {
	t = t[:len(dst)]
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for i := range dst {
		u := bits.RotateLeft64(s1*5, 7) * 9
		dst[i] = u>>11 < t[i]

		tv := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tv
		s3 = bits.RotateLeft64(s3, 45)
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
}

// hitsRefineMask selects the 21 refinement bits a coarse tie consumes;
// see Hits.
const hitsRefineMask = 1<<21 - 1

// Hits draws n (at most 64) Bernoulli outcomes with 53-bit threshold t
// (t = ceil(p * 2^53), so each lane hits with probability exactly
// t * 2^-53 — the distribution of Float64() < p) and packs them into
// the returned mask's low n bits, lane j at bit j.
//
// Two cost levers make this the batched replication kernel's innermost
// primitive. First, the generator state lives in registers across the
// whole call (see Fill) and the threshold compare happens while each
// draw is still in a register, so no variate ever round-trips through
// memory. Second, each 64-bit generator output supplies TWO lanes — the
// high 32 bits then the low 32 — compared against the coarse threshold
// t>>21. A lane strictly below the coarse threshold is a hit, strictly
// above is a miss, and an exact coarse tie (probability 2^-32 per lane)
// draws one fresh refinement word whose low 21 bits settle the outcome
// against t's low 21 bits. The split is exact:
//
//	P(hit) = (t>>21)·2^-32 + 2^-32 · (t mod 2^21)·2^-21 = t·2^-53,
//
// because (t>>21)·2^21 + (t mod 2^21) = t. Halving the generator work
// per lane costs only two predictable never-taken branches.
//
// Hits therefore consumes ceil(n/2) draws, plus one per coarse tie. It
// does NOT consume the stream like n Uint64 calls — callers that need
// draw-for-draw equivalence with the element-wise samplers must use
// FillUint64 and compare themselves.
func (s *Source) Hits(t uint64, n int) uint64 {
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	t32 := t >> 21
	const lane = 0xFFFFFFFF
	var m, b uint64
	j := 0
	// Main loop: eight lanes from four words per iteration. The lane
	// offsets inside a group are constants, so only one variable shift
	// reaches the accumulator per group, and the coarse compares issue
	// in the generator's latency shadow. Each tie check sits directly
	// after its word so the refinement draw lands at the same stream
	// position as in the scalar pairing.
	for ; j+8 <= n; j += 8 {
		u0 := bits.RotateLeft64(s1*5, 7) * 9
		tv := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tv
		s3 = bits.RotateLeft64(s3, 45)
		if u0>>32 == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j)
		}
		if u0&lane == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j+1)
		}

		u1 := bits.RotateLeft64(s1*5, 7) * 9
		tv = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tv
		s3 = bits.RotateLeft64(s3, 45)
		if u1>>32 == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j+2)
		}
		if u1&lane == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j+3)
		}

		u2 := bits.RotateLeft64(s1*5, 7) * 9
		tv = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tv
		s3 = bits.RotateLeft64(s3, 45)
		if u2>>32 == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j+4)
		}
		if u2&lane == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j+5)
		}

		u3 := bits.RotateLeft64(s1*5, 7) * 9
		tv = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tv
		s3 = bits.RotateLeft64(s3, 45)
		if u3>>32 == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j+6)
		}
		if u3&lane == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j+7)
		}

		g := (u0>>32-t32)>>63 | (u0&lane-t32)>>63<<1 |
			(u1>>32-t32)>>63<<2 | (u1&lane-t32)>>63<<3 |
			(u2>>32-t32)>>63<<4 | (u2&lane-t32)>>63<<5 |
			(u3>>32-t32)>>63<<6 | (u3&lane-t32)>>63<<7
		m |= g << uint(j)
	}
	// Tail: the remaining lanes two at a time, same word and refinement
	// order as the main loop.
	for j < n {
		u := bits.RotateLeft64(s1*5, 7) * 9
		tv := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= tv
		s3 = bits.RotateLeft64(s3, 45)

		hi := u >> 32
		m |= ((hi - t32) >> 63) << uint(j)
		if hi == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j)
		}
		j++
		if j >= n {
			break
		}
		lo := u & lane
		m |= ((lo - t32) >> 63) << uint(j)
		if lo == t32 {
			s0, s1, s2, s3, b = hitsRefine(s0, s1, s2, s3, t)
			m |= b << uint(j)
		}
		j++
	}
	s.s[0], s.s[1], s.s[2], s.s[3] = s0, s1, s2, s3
	return m
}

// hitsRefine draws the refinement word for an exact coarse tie and
// returns the advanced state plus the lane's hit bit. It runs with
// probability 2^-32 per lane, so it stays a plain function off the hot
// path.
func hitsRefine(s0, s1, s2, s3, t uint64) (uint64, uint64, uint64, uint64, uint64) {
	u := bits.RotateLeft64(s1*5, 7) * 9
	tv := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= tv
	s3 = bits.RotateLeft64(s3, 45)
	var bit uint64
	if u&hitsRefineMask < t&hitsRefineMask {
		bit = 1
	}
	return s0, s1, s2, s3, bit
}

// Split derives n statistically independent child sources from s.
// The derivation consumes values from s, so the parent stream after Split
// does not overlap the children. Use one child per Monte-Carlo worker.
func (s *Source) Split(n int) []*Source {
	children := make([]*Source, n)
	for i := range children {
		// Seed each child from a fresh SplitMix64 stream keyed by the
		// parent. Mixing through SplitMix64 decorrelates children even
		// when the raw parent outputs are sequential.
		children[i] = NewSource(s.Uint64())
	}
	return children
}
