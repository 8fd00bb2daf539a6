package harness

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

// TestProfileTotalMatchesStats is the acceptance check for the simulated
// profiler: the per-predicate cycle totals of a BUP run must equal the
// run's micro.Stats cycle count exactly — no cycle unattributed, none
// double-counted.
func TestProfileTotalMatchesStats(t *testing.T) {
	rp, err := Profile(progs.BUP2)
	if err != nil {
		t.Fatal(err)
	}
	s, m, err := StatsFor(progs.BUP2)
	if err != nil {
		t.Fatal(err)
	}
	defer (&PSIRun{Machine: m}).Release()
	if rp.TotalCycles != s.Steps {
		t.Errorf("profile total = %d cycles, stats counted %d", rp.TotalCycles, s.Steps)
	}
	var sum int64
	for _, e := range rp.Entries {
		sum += e.Cycles
	}
	if sum != rp.TotalCycles {
		t.Errorf("entries sum to %d, TotalCycles = %d", sum, rp.TotalCycles)
	}
	if rp.Workload != progs.BUP2.Name {
		t.Errorf("workload = %q, want %q", rp.Workload, progs.BUP2.Name)
	}
	if len(rp.Entries) < 2 {
		t.Fatalf("BUP profile has only %d entries", len(rp.Entries))
	}
}

// TestOptionsProgressHeartbeats checks that Options.Progress receives
// cell-labelled heartbeats from table runs — including on multiple
// workers — and that enabling it does not change the computed rows.
func TestOptionsProgressHeartbeats(t *testing.T) {
	quiet, err := Table2With(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cells []string
	o := Options{
		Workers:       2,
		ProgressEvery: 50_000,
		Progress: func(p obs.Progress) {
			mu.Lock()
			cells = append(cells, p.Cell)
			mu.Unlock()
			if p.Cycles <= 0 {
				t.Errorf("heartbeat with %d cycles", p.Cycles)
			}
		},
	}
	loud, err := Table2With(o)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable2(quiet) != FormatTable2(loud) {
		t.Error("enabling progress changed Table 2 output")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cells) == 0 {
		t.Fatal("no heartbeats at a 50k-cycle period")
	}
	for _, c := range cells {
		if !strings.HasPrefix(c, "table2/") {
			t.Errorf("heartbeat cell %q does not name a table2 cell", c)
		}
	}
}

// TestFastEvaluationSweepCounters checks the sweep counters stay honest
// now that the sweeps tap the plan's fast runs: a fast evaluation
// records its 4 sweeps (Figure 1's three and the cache lab's grid), each
// fed its run's full cycle count — window-1's run carries two of them —
// and downgrades no run to exact accounting.
func TestFastEvaluationSweepCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: a full evaluation")
	}
	counter := func(name string) int64 { return telemetry.Default.Counter(name, "").Value() }
	steps := func(b progs.Benchmark) int64 {
		s, m, err := StatsFor(b)
		if err != nil {
			t.Fatal(err)
		}
		defer (&PSIRun{Machine: m}).Release()
		return s.Steps
	}
	want := 2*steps(progs.Window1) + steps(progs.Puzzle8) + steps(progs.BUP3)

	sweeps, records := counter("psi_cache_sweeps_total"), counter("psi_cache_sweep_records_total")
	downgrades := counter("psi_mode_downgrades_total")
	if _, err := EvaluationWith(Options{Workers: 2, Fast: true}); err != nil {
		t.Fatal(err)
	}
	if d := counter("psi_cache_sweeps_total") - sweeps; d != 4 {
		t.Errorf("psi_cache_sweeps_total moved by %d, want 4", d)
	}
	if d := counter("psi_cache_sweep_records_total") - records; d != want {
		t.Errorf("psi_cache_sweep_records_total moved by %d, want %d (the tapped runs' Steps)", d, want)
	}
	if d := counter("psi_mode_downgrades_total") - downgrades; d != 0 {
		t.Errorf("a fast evaluation downgraded %d runs to exact accounting", d)
	}
}
