package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Span tracing for the traced run. The benchmark records a span around
// each call it makes into a layer; spans of one operation share a Req
// id, and Parent links a span to the span that caused it. Spans stay in
// memory and are written out when the run ends.

// Span is one recorded interval, in nanoseconds since the tracer began.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer collects spans; safe for concurrent use. A nil *Tracer records
// nothing, so untraced code paths share the traced ones.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Start(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// End closes the span id and returns its duration.
func (t *Tracer) End(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return time.Duration(sp.End - sp.Start)
}

// add records an already finished span (imported from another log).
func (t *Tracer) add(name string, parent int, req int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans)
}

// importHarness attaches the spans a harness.Options.Spans log recorded
// during one evaluation section as children of the section's span: a
// "cell" span becomes a harness.cell child of the section, and each
// "step" span (one simulation slice, i.e. core) becomes a child of the
// cell of the same name, or of the section when the section records no
// cells. base is the wall time the span log was created at.
func (t *Tracer) importHarness(log *telemetry.SpanLog, base time.Time, section int, req int64) {
	tr := log.Trace()
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	cells := map[string]int{}
	for _, s := range tr.TraceEvents {
		if s.Cat == "cell" {
			cells[s.Name] = t.add("harness.cell", section, req, at(s.TS), at(s.TS+s.Dur))
		}
	}
	for _, s := range tr.TraceEvents {
		if s.Cat != "step" {
			continue
		}
		parent, ok := cells[s.Name]
		if !ok {
			parent = section
		}
		t.add("core.step", parent, req, at(s.TS), at(s.TS+s.Dur))
	}
}

// Snapshot returns a copy of the spans recorded so far.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children, e.g.
// parallel cells, count once).
func selfTimes(spans []Span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total int64 // ns
	Self  int64 // ns
}

// layerTable sums total and self time per span name, largest self first.
func layerTable(spans []Span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// printLayerTable writes the per-layer table with self times.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f\n", r.Name, r.Count, float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}

// writeSpans saves the spans as JSON under dir.
func writeSpans(dir, name string, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
