// Command perfbench is the repository's benchmark: closed-loop
// workloads over the Monte-Carlo kernels, a durable serve node and the
// multi-node fabric, with every job's output checked for correctness.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload kernel-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 a run reports the end-to-end metrics BENCHMARK.json
// lists; with --trace 1 it reports the per-layer metrics instead, from
// spans recorded around the benchmark's calls into each layer and from
// the counters the layers export into registries the benchmark passes
// in. The last line of standard output is the JSON result; a table of
// the same metrics, with error_frac and sample counts, goes to standard
// error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// buildDir is where the benchmark keeps its build, scratch stores and
// span files, relative to the repository root it runs from.
const buildDir = ".bench_build"

// runLimit bounds a whole run, build excluded.
const runLimit = 170 * time.Second

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's measurements by name.
type metrics struct {
	vals map[string]metric
	errs []error
}

func newMetrics() *metrics { return &metrics{vals: make(map[string]metric)} }

func (m *metrics) set(name string, v float64, unit string) {
	m.vals[name] = metric{Value: v, Unit: unit}
}

// setPercentile sets a percentile metric, or records why it cannot be
// reported.
func (m *metrics) setPercentile(name string, xs []float64, p float64, unit string) {
	v, err := percentile(xs, p)
	if err != nil {
		m.errs = append(m.errs, fmt.Errorf("%s: %w", name, err))
		return
	}
	m.set(name, v, unit)
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	firstErr          error
	notes             []string // sample counts and other context for the table
	m                 *metrics
}

func (r *report) count(jobs, failed int, err error) {
	r.attempted += jobs
	r.failed += failed
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timedSetups runs setup setupRepeats times, closing all but the last
// result, and returns the last with the median set-up time in seconds.
func timedSetups[T any](setup func() (T, error), closeFn func(T) error) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := closeFn(last); err != nil {
				return last, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// kernelPhase sets up kernel-mix setupRepeats times and runs it on
// budget b, returning its stats, median set-up time and the peak
// resident set of the process at its end.
func kernelPhase(ctx context.Context, g generator, b budget, r *report) (kernelStats, float64, float64, error) {
	k, setup, err := timedSetups(func() (*kernelBench, error) { return setupKernel(ctx, g) }, func(*kernelBench) error { return nil })
	if err != nil {
		return kernelStats{}, 0, 0, fmt.Errorf("kernel-mix set-up: %w", err)
	}
	runtime.GC()
	st := k.run(ctx, g, 0, b, nil)
	rss, err := peakRSS()
	r.count(st.jobs, st.failed, st.firstErr)
	r.note("kernel-mix phase: %d jobs in %.2f s", st.jobs, st.wall.Seconds())
	return st, setup, rss, err
}

// servicePhase sets up a service workload setupRepeats times and runs
// it on budget b, returning its stats, median set-up time and the peak
// resident set of the process at its end.
func servicePhase(ctx context.Context, workload string, g generator, b budget, r *report) (serviceStats, float64, float64, error) {
	s, setup, err := timedSetups(func() (*serviceBench, error) { return setupService(ctx, workload, g, buildDir+"/tmp", nil) }, (*serviceBench).close)
	if err != nil {
		return serviceStats{}, 0, 0, fmt.Errorf("%s set-up: %w", workload, err)
	}
	runtime.GC()
	st := s.run(ctx, g, 0, b, nil)
	rss, err := peakRSS()
	err = errors.Join(err, s.close())
	r.count(st.jobs, st.failed, st.firstErr)
	r.note("%s phase: %d jobs in %.2f s; latency percentiles over %d samples", workload, st.jobs, st.wall.Seconds(), len(st.outcomes))
	return st, setup, rss, err
}

// secondaryShare is the share of an end-to-end run given to the phase
// of the other kind.
const secondaryShare = 0.35

// endToEnd is an untraced run. Every run reports every end-to-end
// metric, so it runs two phases: the workload's own, for the first
// 1-secondaryShare of the run's time, then one of the other kind. A
// kernel-mix run ends with a fabric-repeat phase, which supplies the
// service metrics (jobs_per_s, reps_per_s and the POST-to-done
// latencies); a service workload's run ends with a kernel-mix phase,
// which supplies the per-path kernel rates. setup_s adds up both
// phases' set-up, and peak_rss_mb is read at the end of the first.
func endToEnd(ctx context.Context, workload string, g generator, secs float64, r *report) error {
	total := time.Duration(secs * float64(time.Second))
	own := time.Duration(float64(total) * (1 - secondaryShare))
	other := total - own
	var (
		kst                 kernelStats
		sst                 serviceStats
		ksetup, ssetup, rss float64
		err1, err2          error
	)
	if workload == kernelMix {
		// The generator's key, with fabric-repeat's job shapes.
		sg := g
		sg.workload = fabricRepeat
		kst, ksetup, rss, err1 = kernelPhase(ctx, g, jobBudget(kernelMix, own), r)
		if err1 == nil {
			sst, ssetup, _, err2 = servicePhase(ctx, fabricRepeat, sg, jobBudget(fabricRepeat, other), r)
		}
	} else {
		sst, ssetup, rss, err1 = servicePhase(ctx, workload, g, jobBudget(workload, own), r)
		if err1 == nil {
			kst, ksetup, _, err2 = kernelPhase(ctx, g, jobBudget(kernelMix, other), r)
		}
	}
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	r.m.set("setup_s", ksetup+ssetup, "s")
	r.m.set("peak_rss_mb", rss, "MiB")
	sst.e2eMetrics(r.m)
	kst.pathMetrics(r.m)
	return nil
}

// loadNames returns the end-to-end and per-layer metrics BENCHMARK.json
// lists, by name with their units: a run must report the one set or
// the other in full.
func loadNames() (e2e, layer map[string]string, err error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	e2e, layer = make(map[string]string), make(map[string]string)
	for _, x := range doc.EndToEnd {
		e2e[x.Name] = x.Unit
	}
	for _, x := range doc.PerLayer {
		layer[x.Name] = x.Unit
	}
	return e2e, layer, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: kernel-mix, serve-fresh or fabric-repeat")
	seed := flag.Uint64("seed", 1, "seed the workload's jobs are generated from")
	seconds := flag.Float64("seconds", 20, "measured time of the run, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run; 0 the end-to-end metrics")
	flag.Parse()
	if !slices.Contains([]string{kernelMix, serveFresh, fabricRepeat}, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload kernel-mix|serve-fresh|fabric-repeat, --seconds > 0 and --trace 0|1")
		return 2
	}
	e2eNames, layerNames, err := loadNames()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	ctx := context.Background()
	g := newGenerator(*workload, *seed)
	r := &report{m: newMetrics()}
	// A shared host's steal moves every time the benchmark measures;
	// the table states it so that runs can be compared knowingly.
	steal0, total0, stealErr := cpuTicks()
	want := e2eNames
	if *trace == 1 {
		want = layerNames
		err = tracedRun(ctx, *workload, g, *seed, *seconds, r)
	} else {
		err = endToEnd(ctx, *workload, g, *seconds, r)
	}
	if steal1, total1, serr := cpuTicks(); stealErr == nil && serr == nil && total1 > total0 {
		r.note("host CPU steal during the run: %.1f%%", 100*(steal1-steal0)/(total1-total0))
	}
	if err == nil {
		err = finish(r, want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.m.vals}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// finish checks the run reported exactly the wanted metrics, in the
// wanted units, and prints them as a table on standard error.
func finish(r *report, want map[string]string) error {
	if len(r.m.errs) > 0 {
		return fmt.Errorf("metrics not measurable: %v", r.m.errs)
	}
	if r.attempted == 0 {
		return fmt.Errorf("no job attempted")
	}
	var names []string
	for name, unit := range want {
		v, ok := r.m.vals[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if v.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", name, v.Unit, unit)
		}
		names = append(names, name)
	}
	for name := range r.m.vals {
		if _, ok := want[name]; !ok {
			delete(r.m.vals, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.m.vals[name]
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Fprintf(os.Stderr, "%-40s %14.6g ratio (%d of %d jobs)\n", "error_frac", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(os.Stderr, "#", n)
	}
	if r.firstErr != nil {
		fmt.Fprintln(os.Stderr, "# first failure:", r.firstErr)
	}
	return nil
}
