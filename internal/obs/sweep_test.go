package obs

import (
	"sync"
	"testing"
)

// sweepCounts snapshots the registry's sweep counters in RecordSweep's
// units (wall time in nanoseconds).
func sweepCounts() [4]int64 {
	return [4]int64{sweepsTotal.Value(), sweepLanesTotal.Value(), sweepRecordsTotal.Value(), sweepWallTotal.Value()}
}

// TestSweepStatsConcurrentWriters hammers the sweep counters from
// parallel writers with interleaved readers — the PMMS sweeps record
// from the harness worker pool — and checks no update is lost; run
// with -race. The counters live in the process-wide telemetry registry,
// so the test asserts on deltas, not absolute values.
func TestSweepStatsConcurrentWriters(t *testing.T) {
	before := sweepCounts()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				RecordSweep(3, 1000, 7)
			}
		}()
	}
	// Interleaved readers must never observe a torn read (flagged by the
	// race detector) or a count going backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := before[0]
		for i := 0; i < 100; i++ {
			s := sweepCounts()
			if s[0] < last {
				t.Error("sweep counter went backwards")
				return
			}
			last = s[0]
		}
	}()
	wg.Wait()
	after := sweepCounts()
	const n = writers * perWriter
	for i, c := range []struct {
		name string
		per  int64
	}{{"psi_cache_sweeps_total", 1}, {"psi_cache_sweep_lanes_total", 3}, {"psi_cache_sweep_records_total", 1000}, {"psi_cache_sweep_wall_seconds_total (ns)", 7}} {
		if got := after[i] - before[i]; got != c.per*n {
			t.Errorf("%s delta = %d, want %d", c.name, got, c.per*n)
		}
	}
}
