// Package scenario provides named, reproducible parameter regimes for the
// fault-creation model.
//
// The paper's 2n parameters are "unknown and unmeasurable in practice"
// (Section 3); its analysis proceeds by regimes — very high-quality
// software with a real chance of zero faults (Section 4) versus software
// with very many low-probability faults (Section 5). The generators here
// realise those regimes as concrete fault sets so that every experiment
// and example runs against the same, documented populations. All
// generation is deterministic in the provided seed.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"diversity/internal/faultmodel"
	"diversity/internal/randx"
)

// Scenario is a named fault-set regime.
type Scenario struct {
	// Name is a short identifier used in reports and bench output.
	Name string
	// Description explains which of the paper's regimes the scenario
	// realises.
	Description string
	// FaultSet holds the generated model parameters.
	FaultSet *faultmodel.FaultSet
}

// GeneratorConfig describes a random fault-set population.
type GeneratorConfig struct {
	// N is the number of potential faults.
	N int
	// PAlpha, PBeta parameterise the Beta distribution the presence
	// probabilities p_i are drawn from.
	PAlpha, PBeta float64
	// PScale rescales the drawn p_i (useful to push a Beta shape into the
	// "very small probabilities" regime). Scaled values are clamped to 1.
	PScale float64
	// QLogMu, QLogSigma parameterise the lognormal the raw region sizes
	// are drawn from; fault sizes in real programs are heavy-tailed.
	QLogMu, QLogSigma float64
	// SumQ is the total demand-space probability the failure regions are
	// normalised to (must be in (0, 1]).
	SumQ float64
}

func (cfg GeneratorConfig) validate() error {
	if cfg.N < 1 {
		return fmt.Errorf("scenario: fault count %d must be at least 1", cfg.N)
	}
	if !(cfg.PAlpha > 0) || !(cfg.PBeta > 0) {
		return fmt.Errorf("scenario: Beta shape parameters (%v, %v) must be positive", cfg.PAlpha, cfg.PBeta)
	}
	if !(cfg.PScale > 0) || cfg.PScale > 1 {
		return fmt.Errorf("scenario: presence scale %v must be in (0, 1]", cfg.PScale)
	}
	if math.IsNaN(cfg.QLogMu) || !(cfg.QLogSigma >= 0) {
		return fmt.Errorf("scenario: lognormal parameters (%v, %v) invalid", cfg.QLogMu, cfg.QLogSigma)
	}
	if !(cfg.SumQ > 0) || cfg.SumQ > 1 {
		return fmt.Errorf("scenario: total region probability %v must be in (0, 1]", cfg.SumQ)
	}
	return nil
}

// Generate draws a fault set from the configured population using seed.
func Generate(cfg GeneratorConfig, seed uint64) (*faultmodel.FaultSet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := randx.NewStream(seed)
	faults := make([]faultmodel.Fault, cfg.N)
	raw := make([]float64, cfg.N)
	total := 0.0
	for i := range faults {
		p := r.Beta(cfg.PAlpha, cfg.PBeta) * cfg.PScale
		if p > 1 {
			p = 1
		}
		faults[i].P = p
		raw[i] = math.Exp(r.NormalMuSigma(cfg.QLogMu, cfg.QLogSigma))
		total += raw[i]
	}
	for i := range faults {
		faults[i].Q = raw[i] / total * cfg.SumQ
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		return nil, fmt.Errorf("scenario: generated parameters invalid: %w", err)
	}
	return fs, nil
}

// SafetyGrade realises the paper's Section-4 regime: a handful of possible
// faults, each very unlikely to survive the rigorous process, so the
// versions have a high probability of being fault-free and the measure of
// interest is P(no common fault).
func SafetyGrade(seed uint64) (Scenario, error) {
	fs, err := Generate(GeneratorConfig{
		N:         8,
		PAlpha:    1.2,
		PBeta:     8,
		PScale:    0.05, // mean presence probability ~0.65%
		QLogMu:    math.Log(1e-4),
		QLogSigma: 1.2,
		SumQ:      0.002,
	}, seed)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Name:        "safety-grade",
		Description: "few potential faults, tiny presence probabilities; Section-4 near-fault-free regime",
		FaultSet:    fs,
	}, nil
}

// ManySmallFaults realises the paper's Section-5 regime: very many
// possible faults with small region probabilities, where the PFD is a sum
// of many independent contributions and the normal approximation is the
// tool of interest.
func ManySmallFaults(seed uint64) (Scenario, error) {
	fs, err := Generate(GeneratorConfig{
		N:         400,
		PAlpha:    1.5,
		PBeta:     12,
		PScale:    0.5, // mean presence probability ~5.6%
		QLogMu:    math.Log(2e-4),
		QLogSigma: 0.9,
		SumQ:      0.08,
	}, seed)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Name:        "many-small-faults",
		Description: "hundreds of low-probability faults; Section-5 normal-approximation regime",
		FaultSet:    fs,
	}, nil
}

// CommercialGrade is an intermediate regime: a few dozen faults with
// moderate probabilities, loosely matching commercial development without
// safety-specific V&V. It exercises the model between the two extremes.
func CommercialGrade(seed uint64) (Scenario, error) {
	fs, err := Generate(GeneratorConfig{
		N:         40,
		PAlpha:    2,
		PBeta:     6,
		PScale:    0.6, // mean presence probability ~15%
		QLogMu:    math.Log(2e-3),
		QLogSigma: 1.1,
		SumQ:      0.15,
	}, seed)
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Name:        "commercial-grade",
		Description: "moderate fault counts and probabilities; intermediate regime",
		FaultSet:    fs,
	}, nil
}

// LargeUniverse realises the sparse-kernel stress regime: a universe of n
// potential faults split into four equal groups whose per-version expected
// fault counts are 2.0, 1.5, 1.0 and 0.5 (so k = E[faults per version] =
// 5 regardless of n), with equal region sizes summing to SumQ = 0.01. The
// construction is deterministic — no seed — so the regime is identical
// across runs and machines. At n = 10^6 a dense development pass touches
// every fault; the grouped equal-p structure is exactly what the geometric
// skip-sampling kernel exploits to make a replication O(k).
func LargeUniverse(n int) (Scenario, error) {
	if n < 4 {
		return Scenario{}, fmt.Errorf("scenario: large-universe fault count %d must be at least 4", n)
	}
	const sumQ = 0.01
	counts := [4]float64{2.0, 1.5, 1.0, 0.5}
	faults := make([]faultmodel.Fault, n)
	q := sumQ / float64(n)
	bounds := [5]int{0, n / 4, n / 2, 3 * n / 4, n}
	for g := 0; g < 4; g++ {
		p := counts[g] / float64(bounds[g+1]-bounds[g])
		for i := bounds[g]; i < bounds[g+1]; i++ {
			faults[i] = faultmodel.Fault{P: p, Q: q}
		}
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: large-universe parameters invalid: %w", err)
	}
	return Scenario{
		Name:        "large-universe",
		Description: fmt.Sprintf("%d equal-size faults in four probability groups, ~5 expected faults per version; sparse-kernel regime", n),
		FaultSet:    fs,
	}, nil
}

// NVersionPool realises the failure-correlation regime recent studies of
// LLM-generated N-version pools report ("A Systematic Methodology for
// Evaluating Failure Independence in LLM-Generated Code"; "Effectiveness
// of LLM-based Software Diversity for Reliability Improvement", see
// PAPERS.md): machine-generated variants of one specification fail far
// from independently. Both studies find a small cluster of
// specification-level blind spots shared by a large fraction of the pool —
// joint failure rates orders of magnitude above the independence product —
// next to a long tail of variant-specific faults that diversity does
// suppress. In the fault-creation model all inter-version correlation is
// carried by the presence probabilities, so the regime is a two-component
// mixture:
//
//   - 4 shared blind-spot faults, p ~ Beta(8, 8) (mean 0.5): mistakes most
//     variants repeat, which defeat even large 1-out-of-N pools and floor
//     the gain from adding versions;
//   - 60 variant-specific faults, p ~ Beta(1.5, 27) (mean ≈ 5%): the
//     component k-of-N adjudication suppresses geometrically.
//
// Region sizes are lognormal (heavy-tailed, as in the other generated
// regimes) and normalised to SumQ = 0.05. Generation is deterministic in
// the seed.
func NVersionPool(seed uint64) (Scenario, error) {
	const (
		nShared = 4
		nIdio   = 60
		sumQ    = 0.05
	)
	r := randx.NewStream(seed)
	n := nShared + nIdio
	faults := make([]faultmodel.Fault, n)
	raw := make([]float64, n)
	total := 0.0
	for i := range faults {
		if i < nShared {
			faults[i].P = r.Beta(8, 8)
		} else {
			faults[i].P = r.Beta(1.5, 27)
		}
		raw[i] = math.Exp(r.NormalMuSigma(math.Log(1e-3), 1.1))
		total += raw[i]
	}
	for i := range faults {
		faults[i].Q = raw[i] / total * sumQ
	}
	fs, err := faultmodel.New(faults)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: n-version-pool parameters invalid: %w", err)
	}
	return Scenario{
		Name:        "n-version-pool",
		Description: "shared blind-spot faults plus a variant-specific tail; LLM-generated N-version correlation regime",
		FaultSet:    fs,
	}, nil
}

// TwoFault returns the paper's Appendix-A two-fault configuration with the
// given presence probabilities and equal region sizes — the setting of the
// single-fault-improvement analysis (experiment E05).
func TwoFault(p1, p2 float64) (Scenario, error) {
	fs, err := faultmodel.New([]faultmodel.Fault{
		{P: p1, Q: 0.1},
		{P: p2, Q: 0.1},
	})
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Name:        "two-fault",
		Description: "Appendix-A two-fault configuration",
		FaultSet:    fs,
	}, nil
}

// Names returns the names accepted by ByName, in presentation order.
func Names() []string {
	return []string{"safety-grade", "many-small-faults", "commercial-grade", "n-version-pool", "million-faults"}
}

// CheckName returns nil if ByName accepts name and ByName's error if it
// does not, without generating anything.
func CheckName(name string) error {
	for _, known := range Names() {
		if name == known {
			return nil
		}
	}
	return fmt.Errorf("unknown scenario %q (want %s)", name, strings.Join(Names(), ", "))
}

// SeedIgnored reports whether ByName ignores the seed for the named
// scenario, so that every seed generates the same fault set.
func SeedIgnored(name string) bool { return name == "million-faults" }

// ByName generates the named scenario from seed. It is the single
// name-to-scenario mapping shared by the CLIs and the execution engine.
// "million-faults" is deterministic and ignores the seed (SeedIgnored); it
// is addressable by name but deliberately absent from All(), whose
// consumers sweep dense replication counts that a 10^6-fault universe
// would stall.
func ByName(name string, seed uint64) (Scenario, error) {
	switch name {
	case "safety-grade":
		return SafetyGrade(seed)
	case "many-small-faults":
		return ManySmallFaults(seed)
	case "commercial-grade":
		return CommercialGrade(seed)
	case "n-version-pool":
		return NVersionPool(seed)
	case "million-faults":
		s, err := LargeUniverse(1_000_000)
		if err != nil {
			return Scenario{}, err
		}
		s.Name = "million-faults"
		return s, nil
	default:
		return Scenario{}, CheckName(name)
	}
}

// All returns one instance of each named random scenario, generated from
// the same seed, plus a representative two-fault configuration. It is the
// default population the experiment driver sweeps over.
func All(seed uint64) ([]Scenario, error) {
	safety, err := SafetyGrade(seed)
	if err != nil {
		return nil, err
	}
	many, err := ManySmallFaults(seed)
	if err != nil {
		return nil, err
	}
	commercial, err := CommercialGrade(seed)
	if err != nil {
		return nil, err
	}
	two, err := TwoFault(0.3, 0.1)
	if err != nil {
		return nil, err
	}
	return []Scenario{safety, many, commercial, two}, nil
}
