package devsim

import "diversity/internal/randx"

// MaskDeveloper is an optional Process extension for allocation-free
// simulation: DevelopInto samples one development's fault-presence mask
// into a caller-owned scratch slice, drawing exactly the same variates in
// the same order as Develop. For a fixed random stream the two entry
// points therefore produce identical version populations; the Monte-Carlo
// harness's dense step relies on this in both aggregation modes to drop
// the per-replication Version allocation without changing any sampled
// value.
//
// All processes in this package implement MaskDeveloper; Develop is a
// thin wrapper that allocates a mask and delegates to DevelopInto.
type MaskDeveloper interface {
	// DevelopInto overwrites present — which must have length
	// FaultSet().N() — with one development's fault-presence mask.
	DevelopInto(r *randx.Stream, present []bool)
}

// The conformance guards keep every process on the allocation-free dense
// path; removing one silently falls back to a per-replication Develop
// (and its Version allocation) in dense Monte-Carlo runs.
var (
	_ MaskDeveloper = (*IndependentProcess)(nil)
	_ MaskDeveloper = (*CommonCauseProcess)(nil)
	_ MaskDeveloper = (*ResourceShiftProcess)(nil)
	_ MaskDeveloper = (*TiedPairsProcess)(nil)
)

// SparseDeveloper is an optional Process extension for O(k) simulation
// over large fault universes: DevelopSparse samples one development's
// fault mask into a caller-owned Bitset (clearing it first) and returns
// the number of geometric skip draws used, zero on dense fallback paths.
//
// Unlike MaskDeveloper, implementations may draw a different — but
// distributionally identical — variate sequence from Develop. Sparse
// results are therefore exactly reproducible for a fixed seed, yet not
// bitwise comparable with dense runs; the Monte-Carlo harness keeps dense
// as its default and enables this path only on request (Config.Sparse).
type SparseDeveloper interface {
	// DevelopSparse overwrites mask — which must have Len() equal to
	// FaultSet().N() — with one development's fault-presence mask and
	// returns the number of geometric skip draws consumed.
	DevelopSparse(r *randx.Stream, mask *Bitset) int
}

// Every process implements SparseDeveloper: the independent process with
// the geometric skip kernel, the correlated and tied processes by
// replaying their dense draw sequence into the bitset (they are O(n) in
// draws regardless, so sparseness there buys O(k) mask handling, not
// O(k) sampling).
var (
	_ SparseDeveloper = (*IndependentProcess)(nil)
	_ SparseDeveloper = (*CommonCauseProcess)(nil)
	_ SparseDeveloper = (*ResourceShiftProcess)(nil)
	_ SparseDeveloper = (*TiedPairsProcess)(nil)
)
