package montecarlo

import (
	"fmt"
	"reflect"
	"testing"

	"diversity/internal/devsim"
	"diversity/internal/faultmodel"
	"diversity/internal/randx"
	"diversity/internal/system"
)

// stepTestFaultSet is a 40-fault universe with the degenerate p = 0 and
// p = 1 faults and a spread of Q values, so ascending q-sums exercise
// rounding and both Bernoulli endpoints.
func stepTestFaultSet(t *testing.T) *faultmodel.FaultSet {
	t.Helper()
	r := randx.NewStream(17)
	faults := make([]faultmodel.Fault, 40)
	for i := range faults {
		faults[i] = faultmodel.Fault{P: 0.05 + 0.5*r.Float64(), Q: 1e-4 * (1 + 9*r.Float64())}
	}
	faults[3].P, faults[11].P = 0, 1
	fs, err := faultmodel.New(faults)
	if err != nil {
		t.Fatalf("faultmodel.New: %v", err)
	}
	return fs
}

// stepTestAdjudicators lists the pools the dense-step tests cover.
var stepTestAdjudicators = []struct {
	versions int
	adj      system.Adjudicator
}{
	{2, system.OneOutOfN{}},
	{3, system.OneOutOfN{}},
	{3, system.KOutOfN{K: 2, N: 3}},
	{3, system.ImperfectAdjudicator{Voter: system.KOutOfN{K: 2, N: 3}, StagePFD: 1e-4}},
}

// stepTestProcesses returns an independent and a common-cause process
// over fs: the first draws through the BernoulliMask fill, the second
// through the clamped per-fault Bernoulli.
func stepTestProcesses(t *testing.T, fs *faultmodel.FaultSet) map[string]devsim.Process {
	t.Helper()
	common, err := devsim.NewCommonCauseProcess(fs, 0.3, 1.5)
	if err != nil {
		t.Fatalf("NewCommonCauseProcess: %v", err)
	}
	return map[string]devsim.Process{
		"independent":  devsim.NewIndependentProcess(fs),
		"common-cause": common,
	}
}

// TestDenseAdapterByteIdentical: a process that hides MaskDeveloper is
// adapted inside the dense step (Develop, then copy Has into the mask).
// Its buffered and streaming Results must equal the mask path's field
// for field, for every pool and worker count.
func TestDenseAdapterByteIdentical(t *testing.T) {
	t.Parallel()

	fs := stepTestFaultSet(t)
	for name, proc := range stepTestProcesses(t, fs) {
		for _, tc := range stepTestAdjudicators {
			for _, workers := range []int{1, 2, 3} {
				for _, streaming := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/workers=%d/streaming=%v", name, tc.adj.Name(), workers, streaming)
					cfg := Config{
						Process: proc, Versions: tc.versions, Adjudicator: tc.adj,
						Reps: 2500, Workers: workers, Seed: 23, Streaming: streaming,
					}
					masked, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s: mask Run: %v", label, err)
					}
					cfg.Process = opaqueProcess{inner: proc}
					adapted, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s: adapter Run: %v", label, err)
					}
					if !reflect.DeepEqual(masked, adapted) {
						t.Errorf("%s: adapter Result differs from the mask path", label)
					}
				}
			}
		}
	}
}

// TestDenseStepMatchesVersionSystem replays each shard the way buffered
// runs were once built — Develop every version, assemble a System with
// NewVoted, read System.PFD and SystemFaultCount — and requires the
// dense step's buffered output to match it replication for replication.
func TestDenseStepMatchesVersionSystem(t *testing.T) {
	t.Parallel()

	fs := stepTestFaultSet(t)
	const reps, seed = 2000, 31
	for name, proc := range stepTestProcesses(t, fs) {
		for _, tc := range stepTestAdjudicators {
			for _, workers := range []int{1, 2, 3} {
				label := fmt.Sprintf("%s/%s/workers=%d", name, tc.adj.Name(), workers)
				res, err := Run(Config{
					Process: proc, Versions: tc.versions, Adjudicator: tc.adj,
					Reps: reps, Workers: workers, Seed: seed,
				})
				if err != nil {
					t.Fatalf("%s: Run: %v", label, err)
				}
				versionFree, systemFree := 0, 0
				streams := randx.NewStream(seed).Split(workers)
				rep := 0
				for w, r := range streams {
					size := reps / workers
					if w < reps%workers {
						size++
					}
					for end := rep + size; rep < end; rep++ {
						versions := make([]*devsim.Version, tc.versions)
						for i := range versions {
							versions[i] = proc.Develop(r)
						}
						sys, err := system.NewVoted(fs, tc.adj, versions...)
						if err != nil {
							t.Fatalf("%s: NewVoted: %v", label, err)
						}
						if res.VersionPFD[rep] != versions[0].PFD() || res.SystemPFD[rep] != sys.PFD() {
							t.Fatalf("%s: rep %d: step (%v, %v), Version/System (%v, %v)", label, rep,
								res.VersionPFD[rep], res.SystemPFD[rep], versions[0].PFD(), sys.PFD())
						}
						if versions[0].FaultCount() == 0 {
							versionFree++
						}
						if sys.SystemFaultCount() == 0 {
							systemFree++
						}
					}
				}
				if res.VersionFaultFree != versionFree || res.SystemFaultFree != systemFree {
					t.Errorf("%s: fault-free counts (%d, %d), Version/System (%d, %d)", label,
						res.VersionFaultFree, res.SystemFaultFree, versionFree, systemFree)
				}
			}
		}
	}
}
