package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/micro"
	"repro/internal/progs"
)

// The chaos suite: every injected fault must terminate its run with a
// classified engine.ErrFault — never an uncontained panic — and a
// machine that contained a fault must go back to the pool clean enough
// to replay subsequent runs byte-identically. `make chaos` runs these
// tests under the race detector.

// chaosPlans is the seeded sweep the chaos tests replay: small trigger
// ordinals so every site fires well inside nreverse (30)'s run.
func chaosPlans() []fault.Plan { return fault.Sweep(1, 2, 500) }

func TestChaosSweepContained(t *testing.T) {
	for _, plan := range chaosPlans() {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			t.Parallel()
			o := Options{Fault: &plan}
			_, err := runPSIWith(o, "chaos/"+progs.NReverse.Name, progs.NReverse, false)
			if err == nil {
				t.Fatalf("plan %v: fault never fired (trigger beyond the run?)", plan)
			}
			if !errors.Is(err, engine.ErrFault) {
				t.Fatalf("plan %v: error %v is not classified engine.ErrFault", plan, err)
			}
			var fe *engine.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("plan %v: error %v carries no *engine.FaultError", plan, err)
			}
			if fe.Site != plan.Site.String() {
				t.Errorf("plan %v: contained at site %q, want %q", plan, fe.Site, plan.Site)
			}
			if fe.Stack == "" {
				t.Errorf("plan %v: fault report has no containment stack", plan)
			}
			if engine.ExitCode(err) != engine.ExitFault {
				t.Errorf("plan %v: exit code %d, want %d", plan, engine.ExitCode(err), engine.ExitFault)
			}
		})
	}
}

func TestChaosReproducible(t *testing.T) {
	plan := fault.Plan{Site: fault.SiteMem, After: 200, Seed: 5}
	var msgs []string
	var steps []int64
	for run := 0; run < 2; run++ {
		o := Options{Fault: &plan}
		_, err := runPSIWith(o, "chaos/repro", progs.NReverse, false)
		if err == nil {
			t.Fatal("fault never fired")
		}
		var fe *engine.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("error %v carries no *engine.FaultError", err)
		}
		msgs = append(msgs, err.Error())
		steps = append(steps, fe.Step)
	}
	if msgs[0] != msgs[1] {
		t.Errorf("same plan, different fault text:\n%s\n%s", msgs[0], msgs[1])
	}
	if steps[0] != steps[1] {
		t.Errorf("same plan contained at step %d then %d", steps[0], steps[1])
	}
}

// TestFaultedPoolMachinesReplayClean is the pool-hygiene regression: a
// machine that contained an injected fault is released to the pool, and
// every later clean run — including concurrent ones — must reproduce
// the baseline statistics exactly. Reset must erase all fault state
// (the injector wiring, the countdowns) along with the rest.
func TestFaultedPoolMachinesReplayClean(t *testing.T) {
	r, err := RunPSI(progs.NReverse, false)
	if err != nil {
		t.Fatal(err)
	}
	baseline := *r.Machine.Stats()
	r.Release()

	// Contain a fault at every site; each failing run's machine goes
	// back into the pool from inside the run path.
	for _, plan := range chaosPlans() {
		plan := plan
		o := Options{Fault: &plan}
		if _, err := runPSIWith(o, "chaos/pool", progs.NReverse, false); !errors.Is(err, engine.ErrFault) {
			t.Fatalf("plan %v: want contained fault, got %v", plan, err)
		}
	}

	// Replay clean runs at -j > 1 on the (now fault-tainted) pool.
	const replays = 8
	stats, errs := parMapErrs(replays, make([]int, replays), func(int) (micro.Stats, error) {
		r, err := RunPSI(progs.NReverse, false)
		if err != nil {
			return micro.Stats{}, err
		}
		defer r.Release()
		return *r.Machine.Stats(), nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replay %d failed: %v", i, err)
		}
		if stats[i] != baseline {
			t.Errorf("replay %d diverged from the pre-fault baseline:\n got %+v\nwant %+v",
				i, stats[i], baseline)
		}
	}
}

// TestKeepGoingSectionDeterministic pins the degradation path: with one
// workload faulted under KeepGoing, the surviving rows and the degraded
// log must be byte-identical at any worker count.
func TestKeepGoingSectionDeterministic(t *testing.T) {
	type result struct {
		text     string
		degraded []DegradedRun
	}
	run := func(workers int) result {
		o := Options{
			Workers:   workers,
			Fault:     &fault.Plan{Site: fault.SiteCache, After: 300, Seed: 2, Only: "8 puzzle"},
			KeepGoing: true,
			Degraded:  NewDegradedLog(),
		}
		rows, err := Table2With(o)
		if err != nil {
			t.Fatalf("workers=%d: keep-going section returned error %v", workers, err)
		}
		return result{FormatTable2(rows), o.Degraded.Runs()}
	}
	serial, parallel := run(1), run(8)
	if serial.text != parallel.text {
		t.Errorf("table text differs between -j 1 and -j 8:\n%s\n----\n%s", serial.text, parallel.text)
	}
	if len(serial.degraded) != 1 || len(parallel.degraded) != 1 {
		t.Fatalf("degraded entries: serial %d, parallel %d; want exactly 1 each",
			len(serial.degraded), len(parallel.degraded))
	}
	if serial.degraded[0] != parallel.degraded[0] {
		t.Errorf("degraded entry differs:\n%+v\n%+v", serial.degraded[0], parallel.degraded[0])
	}
	d := serial.degraded[0]
	if d.Section != "table2" || d.Cell != "table2/8 puzzle" || d.Class != "fault" {
		t.Errorf("degraded entry misattributed: %+v", d)
	}
	if strings.Contains(serial.text, "8 puzzle") {
		t.Errorf("degraded workload still present in the surviving table:\n%s", serial.text)
	}
}

// TestKeepGoingWithoutFlagAborts pins the non-keep-going contract: the
// same faulted section aborts with a cell-attributed, classified error.
func TestKeepGoingWithoutFlagAborts(t *testing.T) {
	o := Options{
		Workers: 4,
		Fault:   &fault.Plan{Site: fault.SiteCache, After: 300, Seed: 2, Only: "8 puzzle"},
	}
	rows, err := Table2With(o)
	if err == nil {
		t.Fatalf("faulted section succeeded with %d rows, want abort", len(rows))
	}
	if !errors.Is(err, engine.ErrFault) {
		t.Errorf("abort error %v is not classified engine.ErrFault", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != "table2/8 puzzle" {
		t.Errorf("abort error %v does not name the failing cell table2/8 puzzle", err)
	}
}

// TestKeepGoingEvaluationDeterministic is the acceptance check for the
// full report: a keep-going evaluation with one faulted workload still
// renders every section (text and JSON) and is byte-identical at any
// worker count. Skipped in -short mode: it computes the evaluation twice.
func TestKeepGoingEvaluationDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full evaluation runs twice")
	}
	run := func(workers int) (string, string) {
		o := Options{
			Workers:   workers,
			Fault:     &fault.Plan{Site: fault.SiteMem, After: 400, Seed: 11, Only: "quick sort"},
			KeepGoing: true,
			Degraded:  NewDegradedLog(),
		}
		e, err := EvaluationWith(o)
		if err != nil {
			t.Fatalf("workers=%d: keep-going evaluation aborted: %v", workers, err)
		}
		if len(e.Degraded) == 0 {
			t.Fatalf("workers=%d: no degraded entries despite the injected fault", workers)
		}
		b, err := e.JSON()
		if err != nil {
			t.Fatalf("workers=%d: JSON: %v", workers, err)
		}
		return e.Text(), string(b)
	}
	text2, json2 := run(2)
	text8, json8 := run(8)
	if text2 != text8 {
		t.Error("keep-going evaluation text differs between -j 2 and -j 8")
	}
	if json2 != json8 {
		t.Error("keep-going evaluation JSON differs between -j 2 and -j 8")
	}
	if !strings.Contains(text2, "Degraded workloads:") {
		t.Error("report text is missing the degraded section")
	}
	for _, section := range []string{"Table 1", "Table 7", "Figure 1", "Ablation"} {
		if !strings.Contains(text2, section) {
			t.Errorf("degraded report lost section %q", section)
		}
	}
}

// TestChaosFastModeContained repeats the containment check with the
// fast accounting mode requested on every site of the sweep: a
// matching fault plan arms a per-cycle consumer, which forces the run
// back onto the exact path, so each fault must still terminate as a
// classified engine.ErrFault with the fault exit code — and must be
// contained at the identical step, with the identical message, as the
// run that never requested fast.
func TestChaosFastModeContained(t *testing.T) {
	for _, plan := range chaosPlans() {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			t.Parallel()
			runOnce := func(fast bool) *engine.FaultError {
				o := Options{Fault: &plan, Fast: fast}
				_, err := runPSIWith(o, "chaos/fast/"+progs.NReverse.Name, progs.NReverse, false)
				if err == nil {
					t.Fatalf("plan %v (fast=%v): fault never fired", plan, fast)
				}
				if !errors.Is(err, engine.ErrFault) {
					t.Fatalf("plan %v (fast=%v): error %v is not classified engine.ErrFault", plan, fast, err)
				}
				if engine.ExitCode(err) != engine.ExitFault {
					t.Fatalf("plan %v (fast=%v): exit code %d, want %d", plan, fast, engine.ExitCode(err), engine.ExitFault)
				}
				var fe *engine.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("plan %v (fast=%v): error %v carries no *engine.FaultError", plan, fast, err)
				}
				return fe
			}
			exact, fast := runOnce(false), runOnce(true)
			if exact.Step != fast.Step {
				t.Errorf("plan %v: contained at step %d exact, %d with fast requested", plan, exact.Step, fast.Step)
			}
			if exact.Error() != fast.Error() {
				t.Errorf("plan %v: fault text depends on the fast request:\n%s\n%s", plan, exact.Error(), fast.Error())
			}
		})
	}
}

// TestFaultFilterPerCell pins the fault-plan semantics of the shared
// evaluation plan: the only= filter is matched against each cell's
// label, matching cells get a faulted run of their own (a sweeper
// tapping such a cell taps that run), and every other cell reads the
// workload's shared clean run.
func TestFaultFilterPerCell(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: three full keep-going evaluations")
	}
	run := func(only string) *Evaluation {
		e, err := EvaluationWith(Options{
			Workers:   2,
			Fast:      true,
			KeepGoing: true,
			Fault:     &fault.Plan{Site: fault.SiteCache, After: 300, Seed: 2, Only: only},
		})
		if err != nil {
			t.Fatalf("only=%s: keep-going evaluation aborted: %v", only, err)
		}
		return e
	}

	// A workload filter degrades that workload in every section, each
	// cell under its own label, in section order — the list a harness
	// that re-simulated every section produced.
	const msg = "8 puzzle: fault at cache (step 1294): cache check at access 300: cache tag parity error: bit 23 flipped in block frame 258"
	var want []DegradedRun
	for _, d := range [][2]string{
		{"table2", "table2/8 puzzle"},
		{"table3", "table3/8 puzzle"},
		{"table4", "table4/8 puzzle"},
		{"table5", "table5/8 puzzle"},
		{"table7", "table7/8 puzzle"},
		{"figure1", "fig1/8 puzzle"},
	} {
		want = append(want, DegradedRun{Section: d[0], Cell: d[1], Class: "fault", Error: msg})
	}
	if got := run("8 puzzle").Degraded; !reflect.DeepEqual(got, want) {
		t.Errorf("only=8 puzzle degraded:\n got  %+v\n want %+v", got, want)
	}

	// A section filter degrades only that section's rows; the other
	// sections read the shared clean runs and match a clean evaluation.
	e := run("table2/")
	if len(e.Degraded) != len(progs.Table2Set()) {
		t.Errorf("only=table2/ degraded %d cells, want the %d Table 2 rows", len(e.Degraded), len(progs.Table2Set()))
	}
	for _, d := range e.Degraded {
		if d.Section != "table2" {
			t.Errorf("only=table2/ degraded a %s cell: %+v", d.Section, d)
		}
	}
	clean, _ := fullEvalStructs(t)
	rest := *e
	rest.Table2, rest.Degraded = clean.Table2, nil
	if !reflect.DeepEqual(&rest, clean) {
		t.Error("only=table2/ changed sections other than Table 2")
	}

	// A Figure 1 cell filter faults only the Figure 1 WINDOW sweep: its
	// tap moves to the cell's own faulted run, while the cache lab and
	// the table cells keep tapping and reading the shared clean run.
	e = run("fig1/window-1")
	if len(e.Degraded) != 1 || e.Degraded[0].Section != "figure1" || e.Degraded[0].Cell != "fig1/window-1" ||
		e.Degraded[0].Class != "fault" || !strings.HasPrefix(e.Degraded[0].Error, "window-1: fault at cache") {
		t.Errorf("only=fig1/window-1 degraded %+v, want the one fig1/window-1 fault", e.Degraded)
	}
	if e.Figure1 != nil {
		t.Error("only=fig1/window-1 still reported Figure 1")
	}
	rest = *e
	rest.Figure1, rest.Degraded = clean.Figure1, nil
	if !reflect.DeepEqual(&rest, clean) {
		t.Error("only=fig1/window-1 changed sections other than Figure 1")
	}
}
