package psi

// BenchmarkEngineIndirection measures the cost of driving a run through
// the engine.Session interface instead of calling Solutions.Next
// directly. The session path adds one interface dispatch per answer and
// a nil-context check per Next; the budget is <= 2% wall-clock overhead
// (recorded in BENCH_engine.json by `go run ./cmd/bench engine`).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/progs"
)

func BenchmarkEngineIndirection(b *testing.B) {
	c, err := harness.Compile(progs.NReverse)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{MaxSteps: 4_000_000_000}

	b.Run("direct", func(b *testing.B) {
		m := core.New(c.Prog, cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !m.Reset(c.Prog, cfg) {
				b.Fatal("Reset refused")
			}
			sols := m.SolveQuery(c.Query)
			if _, ok := sols.Next(); !ok {
				b.Fatal(sols.Err())
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		m := core.New(c.Prog, cfg)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !m.Reset(c.Prog, cfg) {
				b.Fatal("Reset refused")
			}
			sess := core.NewSession(m, c.Query)
			if st, err := sess.Next(nil); st != engine.Solution {
				b.Fatalf("status %v err %v", st, err)
			}
		}
	})
}
