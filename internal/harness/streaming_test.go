package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// streamingSweepTable runs the streaming sweep — one Sweeper tapping the
// machine's memory commands during a fast run, per workload, parallel across
// workloads — and renders the lane results as a small Figure 1 style
// table. Byte-identical output across worker counts is the contract.
func streamingSweepTable(t *testing.T, workers int, bs []progs.Benchmark) string {
	t.Helper()
	cfgs := []cache.Config{
		pmms.SweepConfig(64), pmms.SweepConfig(1024),
		cache.PSI, pmms.OneSetConfig, pmms.StoreThroughConfig,
	}
	rows, err := parMap(workers, bs, func(b progs.Benchmark) (string, error) {
		s := pmms.NewSweeper(cfgs)
		r, err := runBench(b, runOpts{cell: "race-smoke " + b.Name, mem: s, fast: true})
		if err != nil {
			return "", err
		}
		s.AddCycles(r.Machine.Stats().Steps)
		r.Release()
		var sb strings.Builder
		for i := range cfgs {
			c := s.Cache(i)
			fmt.Fprintf(&sb, "%s %s hit=%.4f stall=%d imp=%.2f\n",
				b.Name, cfgs[i], c.HitRatio(), c.StallNS, s.Improvement(i))
		}
		return sb.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(rows, "")
}

// TestStreamingSweepRaceSmoke drives the streaming fan-out across
// workloads concurrently and demands the formatted sweep table be
// byte-identical at -j1 and -j8. It stays in the -short set on purpose:
// under `go test -race -short` this is the smoke test that sweeps the
// memory tap, lane fan-out and machine-pool paths for data races.
func TestStreamingSweepRaceSmoke(t *testing.T) {
	bs := []progs.Benchmark{
		progs.NReverse, progs.QuickSort, progs.TreeTraverse,
		progs.ReverseFunction, progs.BUP1, progs.QueensFirst,
	}
	serial := streamingSweepTable(t, 1, bs)
	parallel := streamingSweepTable(t, 8, bs)
	if serial != parallel {
		line, a, b := firstDiffLine(serial, parallel)
		t.Fatalf("streaming sweep output differs between -j1 and -j8 at line %d:\n j1: %q\n j8: %q", line, a, b)
	}
}

// TestFigure1StreamingWorkerDeterminism checks the real thing: the full
// Figure 1 computation — now a single streaming pass per workload —
// formats byte-identically whether computed serially or on 8 workers.
func TestFigure1StreamingWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 1 sweep skipped in -short mode")
	}
	serial, err := Figure1With(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure1With(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a, b := FormatFigure1(serial), FormatFigure1(parallel)
	if a != b {
		line, la, lb := firstDiffLine(a, b)
		t.Fatalf("Figure 1 output differs between -j1 and -j8 at line %d:\n j1: %q\n j8: %q", line, la, lb)
	}
}

// parMap is parMapErrs collapsed to the first failure by item index,
// matching a serial loop.
func parMap[T, R any](workers int, items []T, fn func(T) (R, error)) ([]R, error) {
	out, errs := parMapErrs(workers, items, fn)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
