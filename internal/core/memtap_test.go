package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/kl0"
	"repro/internal/micro"
	"repro/internal/parse"
	"repro/internal/word"
)

// countTap tallies the memory commands a tap receives per area kind and
// op, and the predicate-context switches.
type countTap struct {
	ops   [5][micro.NumCacheOps]int64
	preds int
}

func (c *countTap) Access(op micro.CacheOp, a word.Addr) { c.ops[a.Area().Kind()][op]++ }
func (c *countTap) EnterPredicate(int)                   { c.preds++ }

// TestMemTapSeesEveryCacheCommand checks the memory tap on both
// accounting paths: it receives exactly the cache commands the run's
// statistics count, per area kind and op, plus predicate switches, and
// it never downgrades a fast run.
func TestMemTapSeesEveryCacheCommand(t *testing.T) {
	prog := kl0.NewProgram(nil)
	cs, err := parse.Clauses("test", `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	for _, fast := range []bool{false, true} {
		tap := &countTap{}
		m := New(prog, Config{MaxSteps: 10_000_000, Fast: fast, Mem: tap})
		if got := answers(t, m, "nrev([1,2,3,4,5,6,7,8], R)", "R", 1); len(got) != 1 || got[0] != "[8,7,6,5,4,3,2,1]" {
			t.Fatalf("fast=%v: answers %v", fast, got)
		}
		want := engine.ModeExact
		if fast {
			want = engine.ModeFast
		}
		if mode := m.AccountingMode(); mode != want || m.ModeDowngradeReason() != "" {
			t.Errorf("fast=%v: mode %q (downgrade %q), want %q", fast, mode, m.ModeDowngradeReason(), want)
		}
		if s := m.Stats(); tap.ops != s.AreaOps {
			t.Errorf("fast=%v: tap saw %v, stats counted %v", fast, tap.ops, s.AreaOps)
		}
		if tap.preds == 0 {
			t.Errorf("fast=%v: the tap received no predicate switch", fast)
		}
	}
}
