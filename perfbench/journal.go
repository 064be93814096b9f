package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// journalPoll is how often a journalMeter looks for new journal
// segments. A segment lives until its store has appended CompactEvery
// records to it, thousands of jobs' worth, so none comes and goes
// between two looks; if one did, the gap in the generation numbers
// would show it.
const journalPoll = 5 * time.Millisecond

// journalMeter counts the bytes a store appends to its journal, exactly.
// The store exports the size of its current segment only, and starts a
// new one at every compaction, deleting the old. The meter opens every
// segment as it appears and keeps it open, so that a deleted segment
// can still be measured at its final size.
type journalMeter struct {
	dir  string
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	segs    map[int]*os.File // by generation
	lastGen int
	err     error
}

func startJournalMeter(dir string) *journalMeter {
	m := &journalMeter{dir: dir, stop: make(chan struct{}), done: make(chan struct{}), segs: make(map[int]*os.File), lastGen: -1}
	m.scan()
	go func() {
		defer close(m.done)
		t := time.NewTicker(journalPoll)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.scan()
			}
		}
	}()
	return m
}

// scan opens the segments that appeared since the last scan.
func (m *journalMeter) scan() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	names, err := filepath.Glob(filepath.Join(m.dir, "journal-*.log"))
	if err != nil {
		m.err = err
		return
	}
	for _, name := range names {
		var gen int
		if _, err := fmt.Sscanf(filepath.Base(name), "journal-%08d.log", &gen); err != nil || m.segs[gen] != nil {
			continue
		}
		f, err := os.Open(name)
		if os.IsNotExist(err) {
			continue // compacted away since the glob; the next gap check sees it
		}
		if err != nil {
			m.err = err
			return
		}
		if m.lastGen >= 0 && gen > m.lastGen+1 {
			f.Close()
			m.err = fmt.Errorf("journal segments %d to %d came and went unmetered", m.lastGen+1, gen-1)
			return
		}
		m.segs[gen] = f
		m.lastGen = max(m.lastGen, gen)
	}
}

// bytes returns the total size of every segment seen so far.
func (m *journalMeter) bytes() (int64, error) {
	m.scan()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, m.err
	}
	var total int64
	for _, f := range m.segs {
		fi, err := f.Stat()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// close stops the meter and closes its segments.
func (m *journalMeter) close() {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.segs {
		f.Close()
	}
}
