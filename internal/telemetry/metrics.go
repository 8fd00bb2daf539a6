package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metrics registry: process-wide counters, gauges and histograms about
// the simulation (steps, inferences, cache hit ratios, session
// durations, degraded cells), with Prometheus text exposition (format
// 0.0.4) mounted at /metrics on the CLIs' -http debug listener, next to
// /debug/pprof. Metrics are host-side aggregates; they never feed back
// into simulated output.

// Counter is a monotonically increasing metric. Safe for concurrent use.
type Counter struct {
	v  atomic.Int64
	ns bool // counts host nanoseconds; exposed in seconds
}

// Add increments the counter by n (n < 0 is ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The value is stored in
// thousandths so ratios survive the integer representation. Safe for
// concurrent use.
type Gauge struct{ milli atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.milli.Store(int64(v * 1000)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return float64(g.milli.Load()) / 1000 }

// Histogram counts observations into cumulative buckets (Prometheus
// semantics: each bucket counts observations <= its upper bound, plus
// an implicit +Inf bucket). Safe for concurrent use.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64 // len(bounds)+1; last = +Inf
	sum    float64
	n      int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry, or use the process-wide Default.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string
}

// Default is the process-wide registry the simulator layers record
// into; ServeDebug's /metrics endpoint exposes it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		help:       map[string]string{},
	}
}

// Counter returns the named counter, creating it on first use. The
// first caller's help string wins.
func (r *Registry) Counter(name, help string) *Counter { return r.counter(name, help, false) }

// SecondsCounter returns the named counter of host nanoseconds, creating
// it on first use. Add nanoseconds; the exposition renders seconds, so
// name it *_seconds_total.
func (r *Registry) SecondsCounter(name, help string) *Counter { return r.counter(name, help, true) }

func (r *Registry) counter(name, help string, ns bool) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{ns: ns}
		r.counters[name] = c
		r.help[name] = help
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.help[name] = help
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given cumulative bucket upper bounds (must be sorted ascending;
// +Inf is implicit). Later callers get the existing histogram
// regardless of their bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.histograms[name] = h
		r.help[name] = help
	}
	return h
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (0.0.4), sorted by name for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if help := r.help[n]; help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", n, help)
		}
		switch {
		case r.counters[n] != nil:
			c := r.counters[n]
			v := strconv.FormatInt(c.Value(), 10)
			if c.ns {
				v = strconv.FormatFloat(float64(c.Value())/1e9, 'g', -1, 64)
			}
			fmt.Fprintf(w, "# TYPE %s counter\n%s %s\n", n, n, v)
		case r.gauges[n] != nil:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n,
				strconv.FormatFloat(r.gauges[n].Value(), 'g', -1, 64))
		default:
			h := r.histograms[n]
			fmt.Fprintf(w, "# TYPE %s histogram\n", n)
			h.mu.Lock()
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i]
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, strconv.FormatFloat(b, 'g', -1, 64), cum)
			}
			cum += h.counts[len(h.bounds)]
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
			fmt.Fprintf(w, "%s_sum %s\n", n, strconv.FormatFloat(h.sum, 'g', -1, 64))
			fmt.Fprintf(w, "%s_count %d\n", n, h.n)
			h.mu.Unlock()
		}
	}
	r.mu.Unlock()
}

// Handler serves the registry as a /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
