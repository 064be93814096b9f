package main

import (
	"fmt"
	"testing"
	"time"

	"diversity/internal/store"
	"diversity/internal/telemetry"
)

// TestJournalMeterCountsCompactedSegments appends the same records to a
// store that compacts every few appends and to one that never does: the
// meter on the first must count exactly the bytes the second's single
// segment holds.
func TestJournalMeterCountsCompactedSegments(t *testing.T) {
	const records = 23
	var want float64
	var got int64
	for _, every := range []int{1 << 20, 5} {
		dir := t.TempDir()
		reg := telemetry.NewRegistry()
		st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncOff, CompactEvery: every, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		m := startJournalMeter(dir)
		for i := 1; i <= records; i++ {
			id := fmt.Sprintf("j-%d", i)
			if err := st.Put(store.JobRecord{ID: id, Seq: uint64(i), Kind: "montecarlo", Status: "queued", Submitted: time.Unix(int64(i), 0).UTC()}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(journalPoll / 2)
		}
		if every > records {
			want = reg.Gauge("store.journal_bytes").Value()
		} else if got, err = m.bytes(); err != nil {
			t.Fatal(err)
		}
		if n := reg.Counter("store.compactions_total").Value(); (n > 0) != (every < records) {
			t.Fatalf("CompactEvery %d: %d compactions", every, n)
		}
		m.close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if want == 0 || float64(got) != want {
		t.Errorf("meter counted %d journal bytes, want %v", got, want)
	}
}
