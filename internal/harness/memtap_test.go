package harness

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// laneCounters is everything a sweep lane reports.
type laneCounters struct {
	Area                                      [5]cache.AreaStats
	Total                                     cache.AreaStats
	StallNS, WriteThroughs, Fills, WriteBacks int64
	VictimHits                                int64
	Misses                                    pmms.MissBreakdown
}

func countersOf(s *pmms.Sweeper, i int) laneCounters {
	c := s.Cache(i)
	return laneCounters{
		Area: c.Area, Total: c.Total, StallNS: c.StallNS, WriteThroughs: c.WriteThroughs,
		Fills: c.Fills, WriteBacks: c.WriteBacks, VictimHits: c.VictimHits, Misses: s.Misses(i),
	}
}

// TestMemTapMatchesCycleStream is the differential for the memory tap:
// a Sweeper fed through core.Config.Mem on a fast run must compute
// exactly what a Sweeper fed every cycle on an exact run computes — per
// lane, in its cycle and access counts, and in the classified misses
// and their per-predicate attribution. The cycle-fed reference rides the
// profile sink, which delivers the trace tap's cycle stream plus the
// predicate context. The lanes are the ones the evaluation sweeps: the
// default lab grid on WINDOW, classified against the machine's cache,
// and the Figure 1 penalty lanes on 8 puzzle and BUP-3. The tap must
// not change the run itself: it keeps the fast path and the statistics
// of an untapped run.
func TestMemTapMatchesCycleStream(t *testing.T) {
	grid := pmms.DefaultGrid().Configs()
	penalty := []cache.Config{cache.PSI, pmms.OneSetConfig}
	for _, tc := range []struct {
		b        progs.Benchmark
		cfgs     []cache.Config
		classify bool
	}{
		{progs.Window1, grid, true},
		{progs.Puzzle8, penalty, false},
		{progs.BUP3, penalty, false},
	} {
		t.Run(tc.b.Name, func(t *testing.T) {
			if testing.Short() && tc.b.Name != progs.Window1.Name {
				t.Skip("short mode: WINDOW only")
			}
			sweeper := func() *pmms.Sweeper {
				s := pmms.NewSweeper(tc.cfgs)
				if tc.classify {
					s.Classify(slices.Index(tc.cfgs, cache.PSI))
				}
				return s
			}

			ref := sweeper()
			r, err := runBench(tc.b, runOpts{profile: ref})
			if err != nil {
				t.Fatal(err)
			}
			r.Release()

			tapped := sweeper()
			r, err = runBench(tc.b, runOpts{mem: memTap([]*pmms.Sweeper{tapped}), fast: true})
			if err != nil {
				t.Fatal(err)
			}
			if mode := r.Machine.AccountingMode(); mode != engine.ModeFast {
				t.Errorf("tapped run accounting mode %q, want %q", mode, engine.ModeFast)
			}
			stats := *r.Machine.Stats()
			tapped.AddCycles(stats.Steps)
			r.Release()

			r, err = runBench(tc.b, runOpts{fast: true})
			if err != nil {
				t.Fatal(err)
			}
			if bare := *r.Machine.Stats(); stats != bare {
				t.Errorf("the tap changed the run's statistics:\n tapped   %+v\n untapped %+v", stats, bare)
			}
			r.Release()

			if tapped.Cycles() != ref.Cycles() || tapped.MemoryAccesses() != ref.MemoryAccesses() {
				t.Errorf("cycles/accesses: tap %d/%d, cycle stream %d/%d",
					tapped.Cycles(), tapped.MemoryAccesses(), ref.Cycles(), ref.MemoryAccesses())
			}
			for i, cfg := range tc.cfgs {
				if got, want := countersOf(tapped, i), countersOf(ref, i); got != want {
					t.Errorf("lane %s:\n tap          %+v\n cycle stream %+v", cfg, got, want)
				}
			}
			got, want := tapped.PredMisses(), ref.PredMisses()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("per-predicate misses differ:\n tap          %+v\n cycle stream %+v", got, want)
			}
			if tc.classify && len(got) < 2 {
				t.Errorf("only %d predicates carry misses: the tap lost the predicate context", len(got))
			}
		})
	}
}
