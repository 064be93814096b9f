package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	t.Parallel()

	got, err := parseInts("1, 8,64", 1)
	if err != nil {
		t.Fatalf("parseInts: %v", err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 8 || got[2] != 64 {
		t.Errorf("parseInts = %v, want [1 8 64]", got)
	}
	for _, bad := range []string{"", "x", "0"} {
		if _, err := parseInts(bad, 1); err == nil {
			t.Errorf("parseInts(%q, 1) succeeded, want error", bad)
		}
	}
}

func TestBenchMatrix(t *testing.T) {
	// Not parallel: allocs_per_rep is a process-wide MemStats delta, so
	// a concurrently running test's allocations would be charged to it.

	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout strings.Builder
	err := run(context.Background(), []string{
		"-reps", "3000", "-workers", "1", "-sparse-n", "", "-pools", "",
		"-batch-widths", "", "-out", out, "-seed", "5",
	}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if rep.Bench != "montecarlo-kernel-matrix" || rep.GoVersion == "" {
		t.Errorf("metadata incomplete: %+v", rep)
	}
	if rep.SchemaVersion != schemaVersion {
		t.Errorf("schema version %d, want %d", rep.SchemaVersion, schemaVersion)
	}
	if rep.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs %d not recorded", rep.GOMAXPROCS)
	}
	if rep.GitCommit == "" {
		t.Error("git commit not recorded (repo checkouts should always resolve one)")
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (buffered + streaming)", len(rep.Rows))
	}
	buffered, streaming := rep.Rows[0], rep.Rows[1]
	if buffered.Streaming || !streaming.Streaming {
		t.Fatalf("row order unexpected: %+v", rep.Rows)
	}
	for _, row := range rep.Rows {
		if row.Reps != 3000 || row.Workers != 1 || row.Scenario != "commercial-grade" || row.N != 40 {
			t.Errorf("row has wrong cell parameters: %+v", row)
		}
		if row.Sparse || row.SparseSkips != 0 {
			t.Errorf("aggregation-matrix row claims the sparse kernel: %+v", row)
		}
		if row.WallNS <= 0 || row.NSPerRep <= 0 || row.RepsPerSecond <= 0 {
			t.Errorf("row missing timing measurements: %+v", row)
		}
	}
	// The two modes sample the same population, so their means agree
	// exactly, and both run the allocation-free dense step: only
	// run-level overhead remains, amortised below one object per rep.
	if buffered.MeanSystemPFD != streaming.MeanSystemPFD {
		t.Errorf("means diverged across modes: %v vs %v", buffered.MeanSystemPFD, streaming.MeanSystemPFD)
	}
	for _, row := range rep.Rows {
		if row.AllocsPerRep > 1 {
			t.Errorf("streaming=%v allocs/rep = %v, want (amortised) at most 1", row.Streaming, row.AllocsPerRep)
		}
	}
}

// TestBenchSparseMatrix pins the kernel matrix: a dense and a sparse cell
// per universe size, the sparse cells actually running the sparse kernel
// and beating the dense baseline on a large universe.
func TestBenchSparseMatrix(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	err := run(context.Background(), []string{"-quick", "-out", "-", "-seed", "5"}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	var kernel []Row
	for _, row := range rep.Rows {
		if row.Scenario == "large-universe" && row.BatchWidth == 0 {
			kernel = append(kernel, row)
		}
	}
	if len(kernel) != 4 {
		t.Fatalf("got %d plain kernel-matrix rows, want 4 (2 sizes × dense/sparse): %+v", len(kernel), rep.Rows)
	}
	for i := 0; i < len(kernel); i += 2 {
		dense, sparse := kernel[i], kernel[i+1]
		if dense.Sparse || !sparse.Sparse {
			t.Fatalf("kernel row order unexpected: %+v", kernel)
		}
		if dense.N != sparse.N || dense.Reps != sparse.Reps {
			t.Errorf("kernel cell pair mismatched: %+v vs %+v", dense, sparse)
		}
		if !dense.Streaming || !sparse.Streaming {
			t.Errorf("kernel matrix must run streaming: %+v", kernel[i])
		}
		if sparse.SparseSkips == 0 {
			t.Errorf("sparse cell recorded no skip draws: %+v", sparse)
		}
		// Even in quick mode the sparse kernel wins clearly at n = 10^5.
		if sparse.N >= 100000 && sparse.NSPerRep*5 > dense.NSPerRep {
			t.Errorf("n=%d: sparse %v ns/rep not well below dense %v ns/rep",
				sparse.N, sparse.NSPerRep, dense.NSPerRep)
		}
	}
	// Quick mode also runs the batch matrix at widths {1, 64}: the width-1
	// baseline row must record no batching, the active rows must have
	// engaged the batched kernel (runCell errors otherwise) and measured.
	var batch []Row
	for _, row := range rep.Rows {
		if row.BatchWidth != 0 {
			batch = append(batch, row)
		}
	}
	if len(batch) == 0 {
		t.Fatal("quick matrix recorded no batch rows")
	}
	sawBaseline, sawActive := false, false
	for _, row := range batch {
		switch {
		case row.BatchWidth == 1:
			sawBaseline = true
		case row.BatchWidth >= 2:
			sawActive = true
		}
		if row.NSPerRep <= 0 || row.RepsPerSecond <= 0 {
			t.Errorf("batch row missing timing measurements: %+v", row)
		}
	}
	if !sawBaseline || !sawActive {
		t.Errorf("batch rows missing baseline or active widths: %+v", batch)
	}
}

// TestBenchPoolMatrix pins the N-version matrix: one row per requested
// versions:adjudicator cell, streaming on all cores, with the voting rule
// recorded in the row. 3:majority and 3:2oo3 share the defeat threshold
// (a fault must be present in ≥2 of 3 versions), so their simulated means
// must agree exactly — the matrix doubles as an adjudicator consistency
// check.
func TestBenchPoolMatrix(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	err := run(context.Background(), []string{
		"-reps", "2000", "-workers", "1", "-sparse-n", "", "-batch-widths", "",
		"-pools", "3:majority,3:2oo3", "-out", "-", "-seed", "5",
	}, &stdout)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	var pool []Row
	for _, row := range rep.Rows {
		if row.Versions != 0 {
			pool = append(pool, row)
		}
	}
	if len(pool) != 2 {
		t.Fatalf("got %d pool rows, want 2: %+v", len(pool), rep.Rows)
	}
	majority, kOutOfN := pool[0], pool[1]
	if majority.Adjudicator != "majority" || kOutOfN.Adjudicator != "2oo3" {
		t.Fatalf("pool row order unexpected: %+v", pool)
	}
	for _, row := range pool {
		if row.Versions != 3 || !row.Streaming || row.Sparse {
			t.Errorf("pool row has wrong cell parameters: %+v", row)
		}
		if row.WallNS <= 0 || row.NSPerRep <= 0 {
			t.Errorf("pool row missing timing measurements: %+v", row)
		}
	}
	if majority.MeanSystemPFD != kOutOfN.MeanSystemPFD {
		t.Errorf("majority-of-3 mean %v != 2oo3 mean %v (same defeat threshold)",
			majority.MeanSystemPFD, kOutOfN.MeanSystemPFD)
	}
}

func TestBenchStdout(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	if err := run(context.Background(), []string{
		"-reps", "1000", "-workers", "1", "-sparse-n", "", "-pools", "",
		"-batch-widths", "", "-out", "-",
	}, &stdout); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Errorf("got %d rows, want 2", len(rep.Rows))
	}
}

func TestBenchBadFlags(t *testing.T) {
	t.Parallel()

	var stdout strings.Builder
	for _, args := range [][]string{
		{"-reps", "0"},
		{"-workers", "-2"},
		{"-reps", "abc"},
		{"-sparse-n", "2"},
	} {
		if err := run(context.Background(), args, &stdout); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
