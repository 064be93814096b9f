package montecarlo

import (
	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/system"
)

// maxBatchArenaWords bounds the per-worker arena of the batched kernel:
// versions × width bitset columns of (n+63)/64 words each, plus the
// fault-major mask rows the development transpose reads (about one more
// column arena's worth). The columns' touched lists add half a word per
// column word on top. 1<<22 words is 32 MiB per worker — wide enough
// that every practical scenario gets its full requested width, small
// enough that a wide request over a million-fault universe cannot
// exhaust memory across many workers.
const maxBatchArenaWords = 1 << 22

// effectiveBatchWidth clamps a requested tile width to the arena
// budget. The clamp is a pure function of the run's configuration, so
// fixed-seed reproducibility (per seed, worker count, and width) is
// unaffected by the machine the run lands on.
func effectiveBatchWidth(width, versions, n int) int {
	words := (n + 63) / 64
	if words < 1 {
		words = 1
	}
	// versions column arenas plus one arena-equivalent of mask rows.
	if budget := maxBatchArenaWords / ((versions + 1) * words); budget < width {
		width = budget
	}
	if width < 1 {
		width = 1
	}
	return width
}

// batchWorker is one worker shard's arena and evaluation state for the
// batched replication kernel. Columns, draw scratch, and the per-slot
// mask view are allocated once at construction and reused for every
// tile, so the steady state performs no allocations.
type batchWorker struct {
	fs    *faultmodel.FaultSet
	adj   system.Adjudicator
	r     *randx.Stream
	width int

	// batchDev tiles the draws fault-major (dense batched mode);
	// sparseDev keeps the sparse kernel's per-replication draw sequence
	// and only tiles the evaluation. Exactly one is non-nil.
	batchDev  devsim.BatchDeveloper
	sparseDev devsim.SparseDeveloper
	skips     *int64

	cols  [][]*devsim.Bitset // [version][slot]: the column arena
	slot  []*devsim.Bitset   // one replication's masks across versions
	draws []uint64           // FillUint64 scratch, devsim.BatchDrawsLen(width)

	sink sink // the worker's output in the run's aggregation mode
}

// newBatchWorker builds the arena for one worker shard.
func newBatchWorker(fs *faultmodel.FaultSet, adj system.Adjudicator, r *randx.Stream, versions, width int, batchDev devsim.BatchDeveloper, sparseDev devsim.SparseDeveloper) *batchWorker {
	bw := &batchWorker{
		fs: fs, adj: adj, r: r, width: width,
		batchDev: batchDev, sparseDev: sparseDev,
		cols:  make([][]*devsim.Bitset, versions),
		slot:  make([]*devsim.Bitset, versions),
		draws: make([]uint64, devsim.BatchScratchLen(width, fs.N())),
	}
	arena := devsim.NewBitsets(fs.N(), versions*width)
	for v := range bw.cols {
		bw.cols[v] = arena[v*width : (v+1)*width : (v+1)*width]
	}
	return bw
}

// run simulates replications [lo, hi) in tiles of up to width columns:
// develop every version's columns for the tile, then evaluate and
// record the tile's replications in order. In dense batched mode the
// development is fault-major per version (one FillUint64 batch per
// fault); in sparse mode each replication's masks are developed with
// the exact draw sequence of the unbatched sparse path, so sparse
// results stay byte-identical to Config.BatchWidth = 0.
func (bw *batchWorker) run(lo, hi int) error {
	for base := lo; base < hi; base += bw.width {
		b := bw.width
		if base+b > hi {
			b = hi - base
		}
		if bw.batchDev != nil {
			for v := range bw.cols {
				bw.batchDev.DevelopBatch(bw.r, bw.cols[v][:b], bw.draws)
			}
		} else {
			for j := 0; j < b; j++ {
				skips := 0
				for v := range bw.cols {
					skips += bw.sparseDev.DevelopSparse(bw.r, bw.cols[v][j])
				}
				*bw.skips += int64(skips)
			}
		}
		for j := 0; j < b; j++ {
			for v := range bw.cols {
				bw.slot[v] = bw.cols[v][j]
			}
			vpfd, vcount := sparsePFD(bw.fs, bw.slot[0])
			spfd, scount := system.BitsetSystemPFD(bw.fs, bw.adj, bw.slot)
			bw.sink.record(base+j, vpfd, vcount, spfd, scount)
		}
	}
	return nil
}
