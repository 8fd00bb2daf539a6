package mapper_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/mapper"
	"repro/internal/progs"
)

// TestFromStatsMatchesAnalyze is the equivalence Table 6 rests on: the
// work-file usage read from a fast-mode run's online statistics equals
// MAP's analysis of the same workload's collected trace.
func TestFromStatsMatchesAnalyze(t *testing.T) {
	for _, b := range []progs.Benchmark{progs.BUP3, progs.NReverse, progs.Window1, progs.Puzzle8, progs.LCP3, progs.Harmonizer3} {
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && b.Name == progs.Harmonizer3.Name {
				t.Skip("harmonizer-3's trace is large; skipped in -short mode")
			}
			collected, err := harness.RunPSI(b, true)
			if err != nil {
				t.Fatal(err)
			}
			want := mapper.Analyze(collected.Trace)
			collected.Release()

			fast, err := harness.RunPSIWith(harness.Options{Fast: true}, b, false)
			if err != nil {
				t.Fatal(err)
			}
			got := mapper.FromStats(fast.Machine.Stats())
			fast.Release()
			if got != want {
				t.Errorf("FromStats = %+v\nAnalyze   = %+v", got, want)
			}
		})
	}
}
