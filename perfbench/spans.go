package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one job share its trace
// identifier; parent names the span that caused this one, if any.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how untraced runs stay free of its cost; a
// tracer switched off records nothing either, so one deployment can
// alternate traced and untraced phases.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) record(trace, name, parent string, start, end time.Time) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Trace: trace, Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// pairDiffs returns, for every trace holding both an outer and an inner
// span, the outer duration minus the inner one, in milliseconds.
func (t *tracer) pairDiffs(outer, inner string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Name == inner {
			in[s.Trace] = s.dur()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == outer {
			if d, ok := in[s.Trace]; ok {
				out = append(out, float64(s.dur()-d)/1e6)
			}
		}
	}
	return out
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeOf names the API route of a request, as the server's and the
// coordinator's request_duration histograms do.
func routeOf(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1/jobs")
	switch {
	case p == r.URL.Path:
		return "other"
	case p == "" && r.Method == http.MethodPost:
		return "jobs_submit"
	case strings.HasSuffix(p, "/events"):
		return "jobs_events"
	case r.Method == http.MethodGet && p != "":
		return "jobs_get"
	}
	return "other"
}

// traced wraps a node's or the coordinator's handler so each request
// records a span named layer.route under the request's X-Request-ID.
// The span's parent is the client's job span, or the caller layer's
// span of the same route.
func traced(t *tracer, layer, caller string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		route := routeOf(r)
		parent := caller + "." + route
		if caller == "client" {
			parent = "client.job"
		}
		t.record(r.Header.Get("X-Request-ID"), layer+"."+route, parent, start, time.Now())
	})
}
