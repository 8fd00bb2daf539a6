package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/progs"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden files under docs/ from the current output")

// evalOnce computes the complete evaluation once per test binary —
// strictly serially, with 8 workers, and with 8 workers in the fast
// accounting mode with a span log attached — so the determinism, golden
// and run-count tests share the (expensive) runs.
var evalOnce struct {
	sync.Once
	serial   *Evaluation
	parallel *Evaluation
	fast     *Evaluation
	spans    *telemetry.SpanLog
	err      error
}

func fullEvalStructs(t *testing.T) (serial, parallel *Evaluation) {
	t.Helper()
	if testing.Short() {
		t.Skip("full evaluation skipped in -short mode")
	}
	evalOnce.Do(func() {
		evalOnce.serial, evalOnce.err = EvaluationWith(Options{Workers: 1})
		if evalOnce.err == nil {
			evalOnce.parallel, evalOnce.err = EvaluationWith(Options{Workers: 8})
		}
		if evalOnce.err == nil {
			evalOnce.spans = telemetry.NewSpanLog()
			evalOnce.fast, evalOnce.err = EvaluationWith(Options{Workers: 8, Fast: true, Spans: evalOnce.spans})
		}
	})
	if evalOnce.err != nil {
		t.Fatal(evalOnce.err)
	}
	return evalOnce.serial, evalOnce.parallel
}

// fastEval returns the fast-mode, 8-worker, span-attached evaluation
// and its span log.
func fastEval(t *testing.T) (*Evaluation, *telemetry.SpanLog) {
	t.Helper()
	fullEvalStructs(t)
	return evalOnce.fast, evalOnce.spans
}

func fullEval(t *testing.T) (serial, parallel string) {
	t.Helper()
	e1, e2 := fullEvalStructs(t)
	return e1.Text(), e2.Text()
}

// TestWorkerCountDeterminism checks the tentpole guarantee: the entire
// formatted evaluation — every table, Figure 1 and the ablations — is
// byte-identical whether computed serially or on 8 workers.
func TestWorkerCountDeterminism(t *testing.T) {
	serial, parallel := fullEval(t)
	if serial == parallel {
		return
	}
	line, a, b := firstDiffLine(serial, parallel)
	t.Fatalf("serial and 8-worker output differ at line %d:\n serial:   %q\n parallel: %q", line, a, b)
}

// TestGoldenEvaluationOutput pins the full `psibench all` output to
// docs/evaluation-output.txt. Run with -update to rewrite the file after
// an intended change to the simulator.
func TestGoldenEvaluationOutput(t *testing.T) {
	serial, _ := fullEval(t)
	checkGolden(t, "../../docs/evaluation-output.txt", serial)
}

// TestGoldenEvaluationJSON pins the structured `psibench -json` document
// to docs/evaluation-output.json. Run with -update to rewrite the file
// after an intended change to the simulator or the report schema.
func TestGoldenEvaluationJSON(t *testing.T) {
	serial, parallel := fullEvalStructs(t)
	b, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(pb) {
		line, x, y := firstDiffLine(string(b), string(pb))
		t.Errorf("serial and 8-worker JSON differ at line %d:\n serial:   %q\n parallel: %q", line, x, y)
	}
	checkGolden(t, "../../docs/evaluation-output.json", string(b))
}

// TestGoldenFastEvaluation pins the fast accounting mode at 8 workers,
// with spans attached, to the same golden text and JSON as the exact
// serial evaluation: the fast engine, the worker count and the span log
// are all invisible in the published numbers.
func TestGoldenFastEvaluation(t *testing.T) {
	e, _ := fastEval(t)
	b, err := e.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ path, got string }{
		{"../../docs/evaluation-output.txt", e.Text()},
		{"../../docs/evaluation-output.json", string(b)},
	} {
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			line, x, y := firstDiffLine(g.got, string(want))
			t.Errorf("fast 8-worker evaluation differs from golden %s at line %d:\n got:  %q\n want: %q", g.path, line, x, y)
		}
	}
}

// TestEvaluationRunCount pins how many simulations a full evaluation
// makes. The plan runs each of the 23 distinct default-configuration
// workloads once for Tables 1-7 and the ablation baselines, plus the 24
// ablation variants — 47 PSI simulations, each recording one Step span.
// Figure 1's 3 sweeps and the cache lab's grid sweep tap the window-1,
// 8 puzzle and BUP-3 runs among them and add none. Table 1 adds 19
// DEC-10 runs, each recording one cell span.
func TestEvaluationRunCount(t *testing.T) {
	_, spans := fastEval(t)
	var buf bytes.Buffer
	if err := spans.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := telemetry.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	psi, dec := 0, 0
	for _, sp := range tr.TraceEvents {
		switch {
		case sp.Cat == "step":
			psi++
		case sp.Cat == "cell" && sp.Args["engine"] == "dec10":
			dec++
		}
	}
	if psi != 47 {
		t.Errorf("full evaluation made %d PSI simulations, want 47", psi)
	}
	if want := len(progs.Table1()); dec != want {
		t.Errorf("full evaluation made %d DEC-10 runs, want %d", dec, want)
	}
}

// TestEvaluationJSONRoundTrip unmarshals the golden JSON document back
// into the report structs and re-serializes it: the bytes must agree,
// proving the schema loses nothing. Pure (de)serialization, so it runs
// even in -short mode.
func TestEvaluationJSONRoundTrip(t *testing.T) {
	want, err := os.ReadFile("../../docs/evaluation-output.json")
	if err != nil {
		t.Fatal(err)
	}
	var e Evaluation
	if err := json.Unmarshal(want, &e); err != nil {
		t.Fatalf("golden evaluation JSON does not unmarshal: %v", err)
	}
	if e.Schema != EvaluationSchema {
		t.Errorf("schema = %q, want %q", e.Schema, EvaluationSchema)
	}
	if e.Table6 == nil || e.Figure1 == nil || len(e.Table1) == 0 || len(e.Ablations) == 0 {
		t.Fatal("golden evaluation JSON is missing sections")
	}
	if e.CacheLab == nil || len(e.CacheLab.Lanes) == 0 || len(e.CacheLab.TopCauses) == 0 {
		t.Fatal("golden evaluation JSON is missing the cache-lab section")
	}
	got, err := e.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		line, a, b := firstDiffLine(string(got), string(want))
		t.Errorf("round trip differs from golden at line %d:\n got:  %q\n want: %q", line, a, b)
	}
}

// TestGoldenAblationOutput pins the `psibench ablate` output to
// docs/ablation-output.txt. The ablation study is the tail section of
// the full evaluation, so no extra simulation is needed.
func TestGoldenAblationOutput(t *testing.T) {
	serial, _ := fullEval(t)
	i := strings.Index(serial, "Ablation study:")
	if i < 0 {
		t.Fatal("full evaluation output has no ablation section")
	}
	tail := serial[i:]
	// The cache-lab section follows the ablations in the full report;
	// this golden pins only what `psibench ablate` prints.
	if j := strings.Index(tail, "Cache lab:"); j >= 0 {
		tail = tail[:j]
	}
	checkGolden(t, "../../docs/ablation-output.txt", tail)
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	line, a, b := firstDiffLine(got, string(want))
	t.Errorf("output differs from golden %s at line %d:\n got:  %q\n want: %q\n(re-run with -update after an intended simulator change)", path, line, a, b)
}

// firstDiffLine reports the 1-based line number and both lines at the
// first difference.
func firstDiffLine(a, b string) (int, string, string) {
	al := strings.Split(a, "\n")
	bl := strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return i + 1, al[i], bl[i]
		}
	}
	if len(al) != len(bl) {
		if len(al) > n {
			return n + 1, al[n], "<missing>"
		}
		return n + 1, "<missing>", bl[n]
	}
	return 0, "", ""
}
