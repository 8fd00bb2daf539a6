package harness

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestOptionsSpansByteIdentical is the telemetry acceptance check at the
// harness level: attaching a span log to a fast-mode parallel table run
// must leave the table byte-identical to a bare serial run, while the
// log captures one labelled span per evaluation cell and exports as a
// valid Chrome trace-event document.
func TestOptionsSpansByteIdentical(t *testing.T) {
	bare, err := Table2With(Options{Workers: 1, Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	log := telemetry.NewSpanLog()
	traced, err := Table2With(Options{Workers: 4, Fast: true, Spans: log})
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable2(bare) != FormatTable2(traced) {
		t.Error("attaching spans (fast mode, 4 workers) changed Table 2 output")
	}
	if log.Len() == 0 {
		t.Fatal("span log is empty after a traced table run")
	}
	var buf bytes.Buffer
	if err := log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("exported trace does not round-trip: %v", err)
	}
	cells := 0
	for _, sp := range tr.TraceEvents {
		if sp.Cat != "cell" {
			continue
		}
		cells++
		if !strings.HasPrefix(sp.Name, "table2/") {
			t.Errorf("cell span %q does not name a table2 cell", sp.Name)
		}
		if sp.Args["status"] != "ok" {
			t.Errorf("cell span %q status %q, want ok", sp.Name, sp.Args["status"])
		}
		if sp.TID <= 0 {
			t.Errorf("cell span %q on tid %d, want a positive cell lane", sp.Name, sp.TID)
		}
	}
	if want := len(traced); cells != want {
		t.Errorf("trace holds %d cell spans, want one per row (%d)", cells, want)
	}
}

// TestAblationRunsRecordSpans is the regression check for ablation runs
// that recorded no spans: every plan run, the ablation bases and
// variants included, records one cell span labelled with the first cell
// it serves, and its Step span and heartbeats carry the same label.
func TestAblationRunsRecordSpans(t *testing.T) {
	log := telemetry.NewSpanLog()
	var mu sync.Mutex
	beats := map[string]bool{}
	o := Options{
		Workers: 2, Fast: true, Spans: log, ProgressEvery: 50_000,
		Progress: func(p obs.Progress) {
			mu.Lock()
			beats[p.Cell] = true
			mu.Unlock()
		},
	}
	if _, err := AblationsWith(o); err != nil {
		t.Fatal(err)
	}
	cells, steps := map[string]bool{}, map[string]int{}
	for _, sp := range log.Trace().TraceEvents {
		switch sp.Cat {
		case "cell":
			cells[sp.Name] = true
		case "step":
			steps[sp.Name]++
		}
	}
	want := ablationCells()
	if len(cells) != len(want) {
		t.Errorf("%d cell spans, want one per ablation run (%d)", len(cells), len(want))
	}
	for _, c := range want {
		if !cells[c.label] || steps[c.label] != 1 {
			t.Errorf("run %q: cell span %v, %d Step spans; want one of each", c.label, cells[c.label], steps[c.label])
		}
	}
	if len(beats) == 0 {
		t.Fatal("no heartbeats at a 50k-cycle period")
	}
	for cell := range beats {
		if !cells[cell] {
			t.Errorf("heartbeat labelled %q, which names no run", cell)
		}
	}
}
