package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/progs"
	"repro/internal/serve"
)

// collect draws n requests from each of the workload's client streams.
func collect(workload string, seed uint64, clients, n int) [][]byte {
	var out [][]byte
	for _, s := range streams(workload, seed, clients) {
		for i := 0; i < n; i++ {
			out = append(out, s.Next().Body)
		}
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range []string{"serve-corpus", "serve-fresh"} {
		a, b := collect(w, 7, 2, 40), collect(w, 7, 2, 40)
		c := collect(w, 8, 2, 40)
		same, differ := true, false
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
			differ = differ || !bytes.Equal(a[i], c[i])
		}
		if !same {
			t.Errorf("%s: the same seed gave different requests", w)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave identical requests", w)
		}
	}
}

// Every round of the corpus mix holds each Table-1 program once, both
// malformed jobs, one step-limit and one fault job.
func TestCorpusMixRounds(t *testing.T) {
	m := newCorpusMix(5)
	n := len(progs.Table1()) + errorJobs
	for round := 0; round < 5; round++ {
		kinds, names := map[string]int{}, map[string]bool{}
		for i := 0; i < n; i++ {
			if m.RoundDone() != (i == 0) {
				t.Fatalf("round %d: RoundDone wrong at request %d", round, i)
			}
			r := m.Next()
			kinds[r.Kind]++
			names[r.Spec.Workload] = true
		}
		if kinds["corpus"] != len(progs.Table1()) || kinds["malformed"] != 2 || kinds["step-limit"] != 1 || kinds["fault"] != 1 {
			t.Fatalf("round %d holds %v", round, kinds)
		}
		if len(names) != n {
			t.Fatalf("round %d repeats a program: %d distinct of %d", round, len(names), n)
		}
	}
}

// Fresh programs are distinct, and the generator's solution count
// matches what the simulated machine enumerates.
func TestFreshProgramSolutionCount(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		r := freshProgram(3, 0, i)
		if seen[r.Spec.Program] {
			t.Fatalf("program %d repeats an earlier one", i)
		}
		seen[r.Spec.Program] = true
		if err := replicate(newTracer(), 0, 0, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples leaves 9 beyond it and must not qualify")
	}
	if _, ok := percentile(xs, 0.95); ok {
		t.Error("p95 of 100 samples leaves 5 beyond it and must not qualify")
	}
	// A failed operation counts as missing every limit.
	xs[0] = math.Inf(1)
	if v, _ := percentile(xs[:11], 0.01); math.IsInf(v, 1) {
		t.Error("a failure sorted below the low percentiles")
	}
	if v := maxOf(xs); !math.IsInf(v, 1) {
		t.Errorf("max with a failure = %v, want +Inf", v)
	}
}

func TestGoldenCheckCatchesOneByte(t *testing.T) {
	want := []byte("Table 1\nnreverse 1.23\n")
	if err := checkGolden("text", append([]byte(nil), want...), want); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	for i := range want {
		got := append([]byte(nil), want...)
		got[i] ^= 1
		if checkGolden("text", got, want) == nil {
			t.Fatalf("a change at byte %d passed the golden check", i)
		}
	}
	if checkGolden("text", want[:len(want)-1], want) == nil {
		t.Fatal("a truncated output passed the golden check")
	}
}

// fixedSource serves one request over and over.
type fixedSource struct{ r Request }

func (f fixedSource) Next() Request { return f.r }

func (f fixedSource) RoundDone() bool { return true }

func TestWrongClassCountsAsFailed(t *testing.T) {
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	job := serve.JobSpec{Program: "loop. loop :- loop.\ngo :- loop, fail.\n", Steps: 10_000}
	for _, tc := range []struct {
		class  string
		failed int
	}{{"step-limit", 0}, {"fault", 3}} {
		src := fixedSource{newRequest(job, "step-limit", tc.class, 0)}
		run := load(d, []source{src}, time.Now(), 3, nil, nil)
		if len(run.ops) != 3 || run.failed() != tc.failed {
			t.Errorf("expecting %q: %d ops, %d failed; want 3, %d", tc.class, len(run.ops), run.failed(), tc.failed)
		}
		for _, l := range run.latencies() {
			if math.IsInf(l, 1) != (tc.failed > 0) {
				t.Errorf("expecting %q: latency %v", tc.class, l)
			}
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "section", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "cell", Start: 30, End: 70},  // overlaps the first
		{ID: 4, Parent: 1, Name: "cell", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "step", Start: 20, End: 40},
	}
	self := selfTimes(spans)
	if self[1] != 100-60-10 {
		t.Errorf("section self = %d, want 30", self[1])
	}
	if self[2] != 20 {
		t.Errorf("cell self = %d, want 20", self[2])
	}
}
