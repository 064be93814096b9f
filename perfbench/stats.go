package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"diversity/internal/faultmodel"
	"diversity/internal/system"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail percentile resting on fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses a percentile with fewer than minBeyond samples beyond it, so
// a p99 needs at least 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, n-rank, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sustainedRate summarises rates measured over many jobs of one run by
// their 90th percentile: the rate the program sustains when
// the host lets it run. On a small shared host both vCPUs are not
// always available to the benchmark, and how often they are differs
// from run to run and minute to minute; a job that loses a vCPU runs
// at up to half speed, so per-job rates spread into a slow tail whose
// weight, and with it any median or total, wanders by tens of percent
// between runs while the 90th percentile moves by a few. A change that
// slows the program slows every job, and so moves the percentile too.
func sustainedRate(rates []float64) float64 {
	n := len(rates)
	if n == 0 {
		return 0
	}
	s := slices.Clone(rates)
	slices.Sort(s)
	return s[(9*n)/10]
}

// gateDelta is the per-check false-failure probability of the
// correctness gate. A run checks at most tens of thousands of jobs, so
// a spurious failure is expected less than once in ten thousand runs.
const gateDelta = 1e-9

// pfdRef is the closed form a Monte-Carlo job's mean PFD, of its system
// or of its first version, is checked against. The PFD of one
// replication is Σ q_i·B_i with independent B_i ~ Bernoulli(d_i), d_i
// the probability that fault i defeats the system or is present in the
// version, so its mean and variance are exact sums over the fault set.
type pfdRef struct {
	mean float64 // Σ q_i d_i
	vari float64 // Σ q_i² d_i (1 - d_i): per-replication variance
	qmax float64 // largest q_i over faults with d_i > 0
}

// sumRef sums the closed form over fs with d giving each fault's d_i.
func sumRef(fs *faultmodel.FaultSet, d func(p float64) float64) pfdRef {
	var ref pfdRef
	for i := 0; i < fs.N(); i++ {
		f := fs.Fault(i)
		di := d(f.P)
		ref.mean += f.Q * di
		ref.vari += f.Q * f.Q * di * (1 - di)
		if di > 0 && f.Q > ref.qmax {
			ref.qmax = f.Q
		}
	}
	return ref
}

// newPFDRef derives the closed-form reference for the system PFD of an
// n-version pool under adj over fs.
func newPFDRef(fs *faultmodel.FaultSet, adj system.Adjudicator, n int) (pfdRef, error) {
	mean, err := system.MeanSystemPFD(fs, adj, n)
	if err != nil {
		return pfdRef{}, err
	}
	ref := sumRef(fs, func(p float64) float64 { return system.DefeatProbability(adj, n, p) })
	ref.mean = mean
	return ref, nil
}

// versionPFDRef derives the closed-form reference for the PFD of one
// version over fs. A version carries far more faults than a system
// defeats, so its mean is the sharper check that the kernel develops
// versions at all: on the million-fault scenario one job sees a system
// fault in only some tens of replications, but thousands of version
// faults.
func versionPFDRef(fs *faultmodel.FaultSet) pfdRef {
	return sumRef(fs, func(p float64) float64 { return p })
}

// tolerance is the largest deviation of a reps-replication mean from
// ref.mean that the gate accepts. It is Bernstein's two-sided bound at
// gateDelta for the sum of the independent, [0, qmax]-bounded terms
// q_i·B_i over every replication and fault: the normal
// sqrt(2·ln(2/δ))·SE term plus a skew term that keeps the gate honest
// when the system fails in only a handful of replications (the
// million-fault scenario sees a system fault in about one replication
// in 10^5, where a plain z-test on the standard error misfires).
func (ref pfdRef) tolerance(reps int) float64 {
	n := float64(reps)
	l := math.Log(2 / gateDelta)
	a := 2 * ref.qmax * l / 3
	total := (a + math.Sqrt(a*a+8*n*ref.vari*l)) / 2
	return total / n
}

// checkMean reports an error when a reps-replication mean lies outside
// the tolerance of the closed form.
func (ref pfdRef) checkMean(mean float64, reps int) error {
	if tol := ref.tolerance(reps); math.Abs(mean-ref.mean) > tol || math.IsNaN(mean) {
		return fmt.Errorf("mean PFD %.6g over %d reps is %.3g from the closed form %.6g (tolerance %.3g)",
			mean, reps, mean-ref.mean, ref.mean, tol)
	}
	return nil
}

// isZ is the normal quantile matching gateDelta, two-sided.
var isZ = math.Sqrt(2 * math.Log(2/gateDelta))

// checkEstimate reports an error when an importance-sampling estimate
// lies more than isZ of its own standard errors from the closed form.
func checkEstimate(estimate, stdErr, closedForm float64) error {
	if stdErr <= 0 || math.IsNaN(estimate) || math.Abs(estimate-closedForm) > isZ*stdErr {
		return fmt.Errorf("IS estimate %.6g (SE %.3g) is %.3g from the closed form %.6g (tolerance %.3g)",
			estimate, stdErr, estimate-closedForm, closedForm, isZ*stdErr)
	}
	return nil
}

// pooled adds up the outputs of many jobs of one shape, so that the gate
// can also check them together. One job is too short for its own
// tolerance to see a 10% bias, or, on the million-fault scenario, even
// a kernel that returns 0: the pooled mean of a run's jobs has the
// tolerance of all their replications together.
type pooled struct {
	jobs, reps int
	sum        float64 // Σ reps·mean
	sumSE2     float64 // Σ (reps·SE)², for importance-sampling estimates
}

// add pools one job's mean over reps replications, with its standard
// error for an importance-sampling estimate and 0 otherwise.
func (p *pooled) add(mean, stdErr float64, reps int) {
	p.jobs++
	p.reps += reps
	p.sum += float64(reps) * mean
	p.sumSE2 += float64(reps) * stdErr * float64(reps) * stdErr
}

func (p *pooled) mean() float64 { return p.sum / float64(p.reps) }

// stdErr is the standard error of the pooled importance-sampling
// estimate: the jobs are independent, so their variances add.
func (p *pooled) stdErr() float64 { return math.Sqrt(p.sumSE2) / float64(p.reps) }

// cpuTicks reads the host's CPU time counters, summed over CPUs, in
// clock ticks: the time the hypervisor ran other guests on this one's
// vCPUs (steal), and the total.
func cpuTicks() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat: %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSS returns the process's peak resident set so far, in MiB: the
// high-water mark the kernel keeps (VmHWM), so that no spike, however
// short, escapes it.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
