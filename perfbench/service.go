package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diversity/internal/fabric"
	"diversity/internal/server"
	"diversity/internal/store"
	"diversity/internal/telemetry"
)

// clients is the number of closed-loop client goroutines: nproc of the
// 2-core reference host.
const clients = 2

// minJobs is the fewest jobs a phase that reports a p99 runs, so that
// ten samples lie beyond it.
const minJobs = 1000

// maxOverrun is how long a phase may run past its nominal duration to
// reach its job count.
const maxOverrun = 30 * time.Second

// budget ends a phase: after jobs jobs when jobs > 0, else once d has
// passed; either way at the latest maxOverrun after d.
type budget struct {
	d    time.Duration
	jobs int
}

func (b budget) spent(elapsed time.Duration, issued int) bool {
	switch {
	case elapsed >= b.d+maxOverrun:
		return true
	case b.jobs > 0:
		return issued >= b.jobs
	default:
		return elapsed >= b.d
	}
}

// nominalRate is each workload's job rate on the 2-core reference host
// when nothing else runs on it. An end-to-end phase of nominal duration
// d runs a fixed number of jobs, nominalRate·d, so that the program's
// state at its end (ledger fill, journal compactions, cache contents,
// and with them its memory) and the number of jobs the correctness
// gate pools are the same in every run, however much of the host the
// benchmark gets that day. A service phase runs at least minJobs jobs,
// for its latency p99.
var nominalRate = map[string]float64{kernelMix: 60, serveFresh: 250, fabricRepeat: 68}

// jobBudget is the fixed-count budget of a workload phase of nominal
// duration d, rounded up to whole kernel-mix cycles.
func jobBudget(workload string, d time.Duration) budget {
	n := int(nominalRate[workload] * d.Seconds())
	if workload == kernelMix {
		n = (n + len(kernelPaths) - 1) / len(kernelPaths) * len(kernelPaths)
	} else {
		n = max(minJobs, n)
	}
	return budget{d: d, jobs: n}
}

// httpListener serves a handler on a loopback port until stop.
type httpListener struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &httpListener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return l, nil
}

// stop closes the listener, waits for open requests to finish and for
// the serving goroutine to return.
func (l *httpListener) stop(ctx context.Context) error {
	err := l.hs.Shutdown(ctx)
	<-l.done
	return err
}

// node is one in-process serve node: a store, a server over it, and a
// loopback listener. A traced node also meters its journal.
type node struct {
	reg     *telemetry.Registry
	st      *store.Store
	journal *journalMeter // nil when untraced
	srv     *server.Server
	http    *httpListener
}

func startNode(dir, fsync string, workers int, tr *tracer, parent string) (*node, error) {
	n := &node{reg: telemetry.NewRegistry()}
	var err error
	if n.st, err = store.Open(store.Options{Dir: dir, Fsync: fsync, Registry: n.reg}); err != nil {
		return nil, fmt.Errorf("opening store: %w", err)
	}
	if tr != nil {
		n.journal = startJournalMeter(dir)
	}
	n.srv = server.New(server.Config{Workers: workers, Store: n.st, Registry: n.reg})
	n.srv.Start()
	if n.http, err = listen(traced(tr, "node", parent, n.srv.Handler())); err != nil {
		n.srv.Shutdown(context.Background())
		n.st.Close()
		if n.journal != nil {
			n.journal.close()
		}
		return nil, err
	}
	return n, nil
}

func (n *node) stop(ctx context.Context) error {
	err := errors.Join(n.http.stop(ctx), n.srv.Shutdown(ctx), n.st.Close())
	if n.journal != nil {
		n.journal.close()
	}
	return err
}

// serviceBench is one service deployment with its closed-loop clients:
// a single durable node for serve-fresh, a coordinator over two nodes
// for fabric-repeat.
type serviceBench struct {
	workload     string
	dir          string
	nodes        []*node
	coordReg     *telemetry.Registry
	coord        *fabric.Coordinator
	coordHTTP    *httpListener
	base         string
	transport    *http.Transport
	hc           *http.Client
	ref, version pfdRef // closed forms of the system and version PFD
	// poolResults holds each repeat-pool spec's result from its first
	// run, with fromCache cleared, for the byte-identity check.
	poolResults [poolSize][]byte
}

// setupService starts the workload's deployment under tmpRoot and warms
// it up: fabric-repeat runs every repeat-pool spec once, so that every
// measured repeat is a cache hit on its owning node.
func setupService(ctx context.Context, workload string, g generator, tmpRoot string, tr *tracer) (s *serviceBench, err error) {
	s = &serviceBench{workload: workload}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	fs, adj, err := resolveModel(serviceJob(smallReps, 0, -1).job.MonteCarlo.Model, "", 2)
	if err != nil {
		return s, err
	}
	if s.ref, err = newPFDRef(fs, adj, 2); err != nil {
		return s, err
	}
	s.version = versionPFDRef(fs)
	if err = os.MkdirAll(tmpRoot, 0o755); err != nil {
		return s, err
	}
	if s.dir, err = os.MkdirTemp(tmpRoot, workload+"-"); err != nil {
		return s, err
	}
	s.transport = &http.Transport{MaxIdleConnsPerHost: 4 * clients}
	s.hc = &http.Client{Transport: s.transport}
	switch workload {
	case serveFresh:
		n, err := startNode(s.dir+"/node0", store.FsyncAlways, 0, tr, "client")
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, n)
		s.base = n.http.url
	case fabricRepeat:
		// One worker per node keeps the two nodes within nproc
		// concurrent jobs.
		var urls []string
		for i := 0; i < 2; i++ {
			n, err := startNode(fmt.Sprintf("%s/node%d", s.dir, i), store.FsyncOff, 1, tr, "coord")
			if err != nil {
				return s, err
			}
			s.nodes = append(s.nodes, n)
			urls = append(urls, n.http.url)
		}
		s.coordReg = telemetry.NewRegistry()
		if s.coord, err = fabric.New(fabric.Config{Nodes: urls, Registry: s.coordReg}); err != nil {
			return s, err
		}
		s.coord.Start()
		if s.coordHTTP, err = listen(traced(tr, "coord", "client", s.coord.Handler())); err != nil {
			return s, err
		}
		s.base = s.coordHTTP.url
	default:
		return s, fmt.Errorf("%q is not a service workload", workload)
	}
	for k := 0; k < poolSize && workload == fabricRepeat; k++ {
		gj := g.pool(k)
		o := s.do(ctx, gj, fmt.Sprintf("%s-warm-pool-%d", workload, k), nil)
		if o.err != nil {
			return s, fmt.Errorf("warm-up pool spec %d: %w", k, o.err)
		}
		s.poolResults[k] = o.result
	}
	for i := 0; i < 8; i++ {
		gj := serviceJob(smallReps, g.seedAt(streamWarm, uint64(i)), -1)
		if o := s.do(ctx, gj, fmt.Sprintf("%s-warm-%d", workload, i), nil); o.err != nil {
			return s, fmt.Errorf("warm-up job %d: %w", i, o.err)
		}
	}
	return s, nil
}

// close stops the deployment and removes its files.
func (s *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	if s.coordHTTP != nil {
		errs = append(errs, s.coordHTTP.stop(ctx))
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Shutdown(ctx))
	}
	for _, n := range s.nodes {
		errs = append(errs, n.stop(ctx))
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// outcome is what the client saw of one job.
type outcome struct {
	err       error
	reps      int
	mean      float64 // the result's mean system PFD
	repeat    bool
	fromCache bool
	latency   time.Duration // POST sent → SSE done received
	submit    time.Duration // POST sent → 202 received
	deliver   time.Duration // server's finished stamp → done received
	queueWait time.Duration // server's submitted → started stamps
	run       time.Duration // server's started → finished stamps
	result    []byte        // repeat-pool jobs: result payload, fromCache cleared
}

// jobView is the part of the API's job view the benchmark reads.
type jobView struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Error     string          `json:"error"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started"`
	Finished  *time.Time      `json:"finished"`
	Result    json.RawMessage `json:"result"`
}

type resultView struct {
	FromCache  bool `json:"fromCache"`
	MonteCarlo *struct {
		Reps    int `json:"reps"`
		Version struct {
			Mean float64 `json:"mean"`
		} `json:"version"`
		System struct {
			Mean float64 `json:"mean"`
		} `json:"system"`
	} `json:"montecarlo"`
}

// request sends one API request carrying the job's correlation ID.
func (s *serviceBench) request(ctx context.Context, method, path, reqID string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return s.hc.Do(req)
}

// readAll reads and closes a response body, checking its status.
func readAll(resp *http.Response, want int) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// awaitDone reads a job's SSE stream up to its done event and returns
// the event's job view.
func awaitDone(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			// Drain the stream's end so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return []byte(data), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading events: %w", err)
	}
	return nil, fmt.Errorf("event stream ended without a done event (last event %q)", event)
}

// do runs one job closed-loop: submit, wait for the SSE done event and,
// on fabric-repeat, read the job back. It checks the job's output.
func (s *serviceBench) do(ctx context.Context, gj genJob, reqID string, tr *tracer) outcome {
	o := outcome{reps: gj.reps, repeat: gj.repeat >= 0}
	body, err := json.Marshal(gj.job)
	if err != nil {
		o.err = err
		return o
	}
	t0 := time.Now()
	resp, err := s.request(ctx, http.MethodPost, "/v1/jobs", reqID, body)
	if err != nil {
		o.err = fmt.Errorf("submitting: %w", err)
		return o
	}
	data, err := readAll(resp, http.StatusAccepted)
	if err != nil {
		o.err = err
		return o
	}
	t1 := time.Now()
	var sub jobView
	if err := json.Unmarshal(data, &sub); err != nil {
		o.err = fmt.Errorf("decoding submit view: %w", err)
		return o
	}
	if resp, err = s.request(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/events", reqID, nil); err != nil {
		o.err = fmt.Errorf("subscribing: %w", err)
		return o
	}
	if data, err = awaitDone(resp); err != nil {
		o.err = err
		return o
	}
	t2 := time.Now()
	o.latency, o.submit = t2.Sub(t0), t1.Sub(t0)
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		o.err = fmt.Errorf("decoding done view: %w", err)
		return o
	}
	if v.Started != nil && v.Finished != nil {
		o.queueWait, o.run, o.deliver = v.Started.Sub(v.Submitted), v.Finished.Sub(*v.Started), t2.Sub(*v.Finished)
	}
	if tr != nil {
		tr.record(reqID, "client.job", "", t0, t2)
		tr.record(reqID, "client.submit", "client.job", t0, t1)
		tr.record(reqID, "client.events", "client.job", t1, t2)
	}
	if o.err = s.check(gj, v, &o); o.err != nil {
		return o
	}
	if s.workload == fabricRepeat {
		t3 := time.Now()
		resp, err := s.request(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, reqID, nil)
		if err == nil {
			data, err = readAll(resp, http.StatusOK)
		}
		if err == nil {
			var got jobView
			if err = json.Unmarshal(data, &got); err == nil && got.Status != "done" {
				err = fmt.Errorf("read-back status %q, want done", got.Status)
			}
		}
		if err != nil {
			o.err = fmt.Errorf("reading job back: %w", err)
			return o
		}
		if tr != nil {
			tr.record(reqID, "client.get", "", t3, time.Now())
		}
	}
	return o
}

// check is the correctness gate of one service job.
func (s *serviceBench) check(gj genJob, v jobView, o *outcome) error {
	if v.Status != "done" {
		return fmt.Errorf("job %s ended %q: %s", v.ID, v.Status, v.Error)
	}
	var r resultView
	if err := json.Unmarshal(v.Result, &r); err != nil || r.MonteCarlo == nil {
		return fmt.Errorf("job %s: no Monte-Carlo result (%v)", v.ID, err)
	}
	if r.MonteCarlo.Reps != gj.reps {
		return fmt.Errorf("job %s ran %d reps, want %d", v.ID, r.MonteCarlo.Reps, gj.reps)
	}
	if err := s.version.checkMean(r.MonteCarlo.Version.Mean, gj.reps); err != nil {
		return fmt.Errorf("job %s version: %w", v.ID, err)
	}
	if err := s.ref.checkMean(r.MonteCarlo.System.Mean, gj.reps); err != nil {
		return fmt.Errorf("job %s system: %w", v.ID, err)
	}
	o.mean = r.MonteCarlo.System.Mean
	o.fromCache = r.FromCache
	if gj.repeat >= 0 {
		o.result = bytes.Replace(v.Result, []byte(`"fromCache":true`), []byte(`"fromCache":false`), 1)
		first := s.poolResults[gj.repeat]
		if first == nil {
			return nil // the pool spec's own first run
		}
		if !r.FromCache {
			return fmt.Errorf("job %s repeats pool spec %d but was not served from the cache", v.ID, gj.repeat)
		}
		if !bytes.Equal(o.result, first) {
			return fmt.Errorf("job %s repeats pool spec %d with a different result:\n%s\nfirst run:\n%s", v.ID, gj.repeat, o.result, first)
		}
	}
	return nil
}

// serviceStats is what one service phase measured.
type serviceStats struct {
	jobs, failed  int
	reps          int
	wall          time.Duration
	outcomes      []outcome // successful jobs
	fresh         pooled    // results of the successful fresh-spec jobs
	firstErr      error
	before, after counters
	next          int // generator index the next phase starts from
}

// counters are the layer counters the phase reads from the registries
// it passed to the program, summed over nodes.
type counters struct {
	cacheHits, cacheMisses int64
	appends, fsyncs        int64
	rejected, reroutes     int64
	// journalBytes is the bytes appended to the journals since the
	// stores opened, from the nodes' journal meters.
	journalBytes int64
	err          error // why journalBytes is unknown
}

func (s *serviceBench) counters() counters {
	var c counters
	for _, n := range s.nodes {
		snap := n.reg.Snapshot()
		c.cacheHits += snap.Counters["engine.cache.hits"]
		c.cacheMisses += snap.Counters["engine.cache.misses"]
		c.appends += snap.Counters["store.appends_total"]
		c.fsyncs += snap.Counters["store.fsyncs_total"]
		if n.journal != nil {
			b, err := n.journal.bytes()
			c.journalBytes += b
			c.err = errors.Join(c.err, err)
		}
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "server.rejected_total.") {
				c.rejected += v
			}
		}
	}
	if s.coordReg != nil {
		c.reroutes = s.coordReg.Counter("fabric.node_reroutes_total").Value()
	}
	return c
}

// run drives the deployment with closed-loop clients, taking jobs from
// generator index from, until the budget is spent.
func (s *serviceBench) run(ctx context.Context, g generator, from int, b budget, tr *tracer) serviceStats {
	st := serviceStats{before: s.counters()}
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if b.spent(time.Since(start), i-from) || ctx.Err() != nil {
					next.Add(-1)
					return
				}
				gj := g.service(i)
				o := s.do(ctx, gj, fmt.Sprintf("%s-%d", s.workload, i), tr)
				mu.Lock()
				st.jobs++
				if o.err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("job %d: %w", i, o.err)
					}
				} else {
					st.reps += o.reps
					st.outcomes = append(st.outcomes, o)
					if !o.repeat {
						st.fresh.add(o.mean, 0, o.reps)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	// A repeat returns its spec's first result again, so only fresh
	// specs are independent samples to pool.
	if st.fresh.jobs > 0 {
		if err := s.ref.checkMean(st.fresh.mean(), st.fresh.reps); err != nil {
			st.failed += st.fresh.jobs
			if st.firstErr == nil {
				st.firstErr = fmt.Errorf("fresh jobs pooled over %d reps: system: %w", st.fresh.reps, err)
			}
		}
	}
	st.after = s.counters()
	st.next = int(next.Load())
	return st
}

// add folds a later phase on the same deployment into st.
func (st *serviceStats) add(o serviceStats) {
	if st.jobs == 0 && st.wall == 0 {
		st.before = o.before
	}
	st.jobs += o.jobs
	st.failed += o.failed
	st.reps += o.reps
	st.wall += o.wall
	st.outcomes = append(st.outcomes, o.outcomes...)
	if st.firstErr == nil {
		st.firstErr = o.firstErr
	}
	st.after, st.next = o.after, o.next
}

// perJob divides a counter's growth over the phase by its jobs.
func (st serviceStats) perJob(delta int64) float64 {
	if st.jobs == 0 {
		return 0
	}
	return float64(delta) / float64(st.jobs)
}

// layerMetrics adds the engine, server, store and fabric per-layer
// metrics of this phase.
func (st serviceStats) layerMetrics(m *metrics, s *serviceBench, tr *tracer) {
	var submit, deliver, queueWait, run []float64
	repeats, hits := 0, 0
	for _, o := range st.outcomes {
		submit = append(submit, float64(o.submit)/1e6)
		deliver = append(deliver, float64(o.deliver)/1e6)
		queueWait = append(queueWait, float64(o.queueWait)/1e6)
		run = append(run, float64(o.run)/1e6)
		if o.repeat {
			repeats++
			if o.fromCache {
				hits++
			}
		}
	}
	b, a := st.before, st.after
	lookups := (a.cacheHits - b.cacheHits) + (a.cacheMisses - b.cacheMisses)
	if lookups > 0 {
		m.set("engine.cache_hit_frac", float64(a.cacheHits-b.cacheHits)/float64(lookups), "ratio")
	}
	m.setPercentile("server.submit_ms.p50", submit, 0.5, "ms")
	m.setPercentile("server.deliver_ms.p50", deliver, 0.5, "ms")
	m.setPercentile("server.queue_wait_ms.p99", queueWait, 0.99, "ms")
	m.setPercentile("server.run_ms.p50", run, 0.5, "ms")
	m.set("server.rejected_total", float64(a.rejected-b.rejected), "count")
	m.set("store.appends_per_job", st.perJob(a.appends-b.appends), "count")
	m.set("store.fsyncs_per_job", st.perJob(a.fsyncs-b.fsyncs), "count")
	if err := errors.Join(b.err, a.err); err != nil {
		m.errs = append(m.errs, fmt.Errorf("store.journal_bytes_per_job: %w", err))
	}
	m.set("store.journal_bytes_per_job", st.perJob(a.journalBytes-b.journalBytes), "bytes")
	if s.workload == fabricRepeat {
		if repeats > 0 {
			m.set("fabric.affinity_frac", float64(hits)/float64(repeats), "ratio")
		}
		m.set("fabric.node_reroutes_total", float64(a.reroutes-b.reroutes), "count")
		if tr != nil {
			hops := append(tr.pairDiffs("coord.jobs_submit", "node.jobs_submit"), tr.pairDiffs("coord.jobs_get", "node.jobs_get")...)
			m.setPercentile("fabric.hop_ms.p50", hops, 0.5, "ms")
		}
	}
}

// e2eMetrics adds the phase's end-to-end throughput and latency.
func (st serviceStats) e2eMetrics(m *metrics) {
	var lat []float64
	for _, o := range st.outcomes {
		lat = append(lat, float64(o.latency)/1e6)
	}
	m.set("jobs_per_s", float64(len(st.outcomes))/st.wall.Seconds(), "jobs/s")
	m.set("reps_per_s", float64(st.reps)/st.wall.Seconds(), "reps/s")
	m.setPercentile("latency_p50_ms", lat, 0.5, "ms")
	m.setPercentile("latency_p99_ms", lat, 0.99, "ms")
}
