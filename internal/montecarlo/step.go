package montecarlo

import (
	"fmt"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// sink is one worker's per-replication output. Buffered runs write the
// replication's slot of the result slices (indexed by global replication
// number); streaming runs fold the PFDs into the worker's aggregates.
// Exactly one pair is set. Both modes count fault-free replications, so
// every kernel step records the same five values whatever the mode.
type sink struct {
	versionPFD, systemPFD []float64
	vAgg, sAgg            *Agg
	counts                *[2]int // (versionFaultFree, systemFaultFree)
}

// record stores one replication's first-version PFD and fault count and
// its system PFD and defeating-fault count.
func (s *sink) record(rep int, vpfd float64, vcount int, spfd float64, scount int) {
	if s.vAgg != nil {
		s.vAgg.Observe(vpfd)
		s.sAgg.Observe(spfd)
	} else {
		s.versionPFD[rep] = vpfd
		s.systemPFD[rep] = spfd
	}
	if vcount == 0 {
		s.counts[0]++
	}
	if scount == 0 {
		s.counts[1]++
	}
}

// developMask adapts a process without the MaskDeveloper extension to
// the dense step: it develops one Version and copies its presence bits
// into mask. The draws are Develop's own, and the mask feeds the same
// ascending q-sums as Version.PFD and System.PFD, so the adapted run is
// bitwise identical to assembling a System per replication.
func developMask(p devsim.Process, r *randx.Stream, mask []bool) error {
	v := p.Develop(r)
	if v.NumPotential() != len(mask) {
		return fmt.Errorf("version has %d potential faults, fault set has %d", v.NumPotential(), len(mask))
	}
	for i := range mask {
		mask[i] = v.Has(i)
	}
	return nil
}

// maskPFD sums the region probabilities of the faults present in a mask —
// the dense step's equivalent of Version.PFD, summing in the same index
// order so values are bitwise identical.
func maskPFD(fs *faultmodel.FaultSet, present []bool) (pfd float64, count int) {
	for i, has := range present {
		if has {
			pfd += fs.Fault(i).Q
			count++
		}
	}
	return pfd, count
}
