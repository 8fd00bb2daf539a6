package psi

// The sampling-vs-exact differential suite: the statistical profiler's
// whole claim is that it reproduces the exact profiler's per-predicate
// attribution within telemetry.ShareTolerance while keeping the fast
// accounting engine fast. This suite locks the claim on all Table 1
// programs and is the accuracy gate (tier-1 and `make telemetry`);
// BENCH_obs.json records only the sampler's overhead.

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

// TestSamplingDifferentialTable1 profiles every Table 1 program with the
// exact per-cycle profiler and the stride-sampling profiler and bounds
// the per-predicate attribution error:
//
//   - the sampled total equals the exact total exactly (both equal the
//     run's Steps count — the sampler flushes its partial stride at the
//     observation boundary);
//   - every predicate's sampled cycle share is within
//     telemetry.ShareTolerance (absolute) of its exact share, including
//     predicates one side attributes and the other does not.
func TestSamplingDifferentialTable1(t *testing.T) {
	table := progs.Table1()
	if testing.Short() {
		table = table[:5]
	}
	for _, b := range table {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			exact, err := harness.Profile(b)
			if err != nil {
				t.Fatal(err)
			}
			samp, err := harness.SampleProfile(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !samp.Sampled || samp.SampleStride != telemetry.DefaultSampleStride {
				t.Fatalf("SampleProfile returned a non-sampled profile: %+v", samp)
			}
			if samp.TotalCycles != exact.TotalCycles {
				t.Errorf("sampled total %d != exact total %d", samp.TotalCycles, exact.TotalCycles)
			}
			shares := make(map[string]float64, len(exact.Entries))
			for _, e := range exact.Entries {
				shares[e.Name] = e.Share
			}
			for _, e := range samp.Entries {
				d := e.Share - shares[e.Name]
				if d < 0 {
					d = -d
				}
				if d > telemetry.ShareTolerance {
					t.Errorf("%s: sampled share %.4f vs exact %.4f (|delta| %.4f > %.2f)",
						e.Name, e.Share, shares[e.Name], d, float64(telemetry.ShareTolerance))
				}
				delete(shares, e.Name)
			}
			// Predicates the sampler never observed must be below the
			// tolerance in the exact profile too.
			for name, share := range shares {
				if share > telemetry.ShareTolerance {
					t.Errorf("%s: exact share %.4f but the sampler attributed nothing", name, share)
				}
			}
		})
	}
}
