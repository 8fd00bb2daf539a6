package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/pmms"
)

func TestWithinBound(t *testing.T) {
	for _, c := range []struct {
		value float64
		op    string
		bound float64
		want  bool
	}{
		{1.02, "<=", 1.02, true}, // equality on the boundary passes
		{1.0201, "<=", 1.02, false},
		{0.97, "<=", 1.02, true},
		{1.5, ">=", 1.5, true},
		{1.4999, ">=", 1.5, false},
		{1.68, ">=", 1.5, true},
		{0.5, "", 0, true}, // no bound
		{1, "<", 2, false}, // unknown op never passes
	} {
		if got := within(c.value, c.op, c.bound); got != c.want {
			t.Errorf("within(%v, %q, %v) = %v, want %v", c.value, c.op, c.bound, got, c.want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// Unsorted on purpose; sorted it is 1..9, so the linear-interpolation
	// quartiles land on order statistics 2, 4 and 6 (0-based).
	q1, med, q3 := quartiles([]float64{9, 1, 8, 2, 7, 3, 6, 4, 5})
	if q1 != 3 || med != 5 || q3 != 7 {
		t.Errorf("quartiles = %v %v %v, want 3 5 7", q1, med, q3)
	}
	// Even length interpolates between neighbours.
	q1, med, q3 = quartiles([]float64{4, 1, 3, 2})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{1.3}); q1 != 1.3 || med != 1.3 || q3 != 1.3 {
		t.Errorf("single-round quartiles = %v %v %v", q1, med, q3)
	}
}

func TestUnknownAreaRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// The valid area is listed first: nothing may be measured (or
	// written) before the whole argument list is validated.
	if code := run([]string{"fast", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("measured before rejecting: %q", stdout.String())
	}
	msg := stderr.String()
	for _, want := range []string{`"nope"`, "engine", "fast", "obs", "pmms"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q does not mention %s", msg, want)
		}
	}
}

func TestPSILaneRequired(t *testing.T) {
	cfgs := pmms.DefaultGrid().Configs()
	i, err := psiLane(cfgs)
	if err != nil || cfgs[i] != cache.PSI {
		t.Fatalf("psiLane(default grid) = %d, %v", i, err)
	}
	var without []cache.Config
	for _, c := range cfgs {
		if c != cache.PSI {
			without = append(without, c)
		}
	}
	if _, err := psiLane(without); err == nil {
		t.Error("a grid without the PSI configuration must be an error, not lane 0")
	}
}

// TestCommittedRecords decodes every committed BENCH_<area>.json as a
// psi-bench/v1 record whose top-level ok is the AND of its ratios' ok.
func TestCommittedRecords(t *testing.T) {
	for _, a := range areas {
		b, err := os.ReadFile("../../BENCH_" + a.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if rec.Schema != schema || rec.Area != a.name {
			t.Errorf("%s: schema %q area %q", a.name, rec.Schema, rec.Area)
		}
		if rec.Rounds <= 0 || len(rec.LanesNS) < 2 || len(rec.Ratios) == 0 {
			t.Errorf("%s: %d rounds, %d lanes, %d ratios", a.name, rec.Rounds, len(rec.LanesNS), len(rec.Ratios))
		}
		all := true
		for _, r := range rec.Ratios {
			all = all && r.OK
			if r.OK != within(r.Value, r.Op, r.Bound) {
				t.Errorf("%s/%s: ok %v disagrees with %v %s %v", a.name, r.Name, r.OK, r.Value, r.Op, r.Bound)
			}
		}
		if rec.OK != all {
			t.Errorf("%s: ok %v, but the AND of its ratios is %v", a.name, rec.OK, all)
		}
	}
}
