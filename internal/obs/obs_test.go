package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kl0"
	"repro/internal/parse"
)

const testProgram = `
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
mklist(0, []).
mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T).
go :- mklist(20, L), nrev(L, _).
`

// runMachine executes the test program with the given extras wired in
// and returns the machine after its first solution.
func runMachine(t *testing.T, cfg core.Config) (*core.Machine, *kl0.Program) {
	t.Helper()
	prog := kl0.NewProgram(nil)
	cs, err := parse.Clauses("test", testProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.AddClauses(cs); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 200_000_000
	}
	m := core.New(prog, cfg)
	sols, err := m.Solve("go")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sols.Next(); !ok {
		t.Fatalf("query failed: %v", sols.Err())
	}
	return m, prog
}

func TestProfilerTotalMatchesStatsExactly(t *testing.T) {
	p := NewProfiler()
	m, prog := runMachine(t, core.Config{Profile: p})
	rp := p.Profile(prog, "nrev-20")

	if rp.TotalCycles != m.Stats().Steps {
		t.Errorf("profile total = %d cycles, machine executed %d", rp.TotalCycles, m.Stats().Steps)
	}
	var sum int64
	for _, e := range rp.Entries {
		sum += e.Cycles
	}
	if sum != rp.TotalCycles {
		t.Errorf("entry cycles sum to %d, TotalCycles = %d", sum, rp.TotalCycles)
	}
	names := map[string]bool{}
	for _, e := range rp.Entries {
		names[e.Name] = true
	}
	for _, want := range []string{"app/3", "nrev/2", "mklist/2", "go/0"} {
		if !names[want] {
			t.Errorf("profile is missing predicate %s (have %v)", want, rp.Entries)
		}
	}
	// Per-entry module breakdown must cover the entry's cycles.
	for _, e := range rp.Entries {
		var mods int64
		for _, mc := range e.ModuleSteps {
			mods += mc.Count
		}
		if mods != e.Cycles {
			t.Errorf("%s: module steps sum to %d, cycles = %d", e.Name, mods, e.Cycles)
		}
	}
	// Sorted by cycles descending.
	for i := 1; i < len(rp.Entries); i++ {
		if rp.Entries[i-1].Cycles < rp.Entries[i].Cycles {
			t.Errorf("entries out of order at %d: %d < %d", i, rp.Entries[i-1].Cycles, rp.Entries[i].Cycles)
		}
	}
}

func TestProfilerMissAttribution(t *testing.T) {
	p := NewProfiler()
	m, prog := runMachine(t, core.Config{Profile: p})
	rp := p.Profile(prog, "")
	c := m.Cache()
	if c == nil {
		t.Fatal("expected the default cache")
	}
	wantMisses := c.Total.Accesses - c.Total.Hits
	var misses, mem int64
	for _, e := range rp.Entries {
		misses += e.CacheMisses
		mem += e.MemAccesses
	}
	if misses != wantMisses {
		t.Errorf("attributed %d misses, cache counted %d", misses, wantMisses)
	}
	if mem != c.Total.Accesses {
		t.Errorf("attributed %d memory accesses, cache counted %d", mem, c.Total.Accesses)
	}
}

func TestProfilerDeterministic(t *testing.T) {
	run := func() *RunProfile {
		p := NewProfiler()
		_, prog := runMachine(t, core.Config{Profile: p})
		return p.Profile(prog, "w")
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs produced different profiles:\n%+v\n%+v", a, b)
	}
}

func TestProfilerReset(t *testing.T) {
	p := NewProfiler()
	_, prog := runMachine(t, core.Config{Profile: p})
	p.Reset()
	rp := p.Profile(prog, "")
	if len(rp.Entries) != 0 || rp.TotalCycles != 0 {
		t.Errorf("after Reset: %d entries, %d cycles", len(rp.Entries), rp.TotalCycles)
	}
}

func TestRunProfileFormat(t *testing.T) {
	p := NewProfiler()
	_, prog := runMachine(t, core.Config{Profile: p})
	rp := p.Profile(prog, "nrev-20")

	var b strings.Builder
	rp.Format(&b, 2)
	out := b.String()
	if !strings.Contains(out, "nrev-20") || !strings.Contains(out, "app/3") {
		t.Errorf("formatted profile missing workload or top predicate:\n%s", out)
	}
	if !strings.Contains(out, "more") {
		t.Errorf("top-2 of %d entries should mention the elided tail:\n%s", len(rp.Entries), out)
	}
	b.Reset()
	rp.Format(&b, 0)
	if strings.Contains(b.String(), "more") {
		t.Errorf("topN=0 must print every entry:\n%s", b.String())
	}
}

func TestRunReport(t *testing.T) {
	m, _ := runMachine(t, core.Config{})
	r := NewRunReport(m, "nrev-20", nil)

	if r.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", r.Schema, ReportSchema)
	}
	if r.MicroCycles != m.Stats().Steps {
		t.Errorf("micro_cycles = %d, want %d", r.MicroCycles, m.Stats().Steps)
	}
	if r.SimulatedNS != m.TimeNS() {
		t.Errorf("simulated_ns = %d, want %d", r.SimulatedNS, m.TimeNS())
	}
	var mods int64
	for _, mc := range r.ModuleSteps {
		mods += mc.Count
	}
	if mods != r.MicroCycles {
		t.Errorf("module steps sum to %d, want %d", mods, r.MicroCycles)
	}
	if r.Cache == nil {
		t.Fatal("cache section missing with the default cache")
	}
	if r.Cache.Total.Accesses == 0 || r.Cache.Total.HitRatio <= 0 {
		t.Errorf("implausible cache totals: %+v", r.Cache.Total)
	}
	if len(r.Cache.Areas) != 5 {
		t.Errorf("want 5 cache areas, got %d", len(r.Cache.Areas))
	}
	if r.Memory.HeapHighWaterWords <= 0 {
		t.Errorf("heap high water = %d", r.Memory.HeapHighWaterWords)
	}
	if len(r.Memory.StackHighWater) != 4 { // 1 process x 4 stack areas
		t.Errorf("want 4 stack areas, got %+v", r.Memory.StackHighWater)
	}
	if r.Host != nil {
		t.Error("host section must be omitted when not supplied")
	}
}

func TestRunReportJSONRoundTrip(t *testing.T) {
	m, _ := runMachine(t, core.Config{})
	r := NewRunReport(m, "nrev-20", &HostReport{WallNS: 123, Allocs: 4, AllocBytes: 5})
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report does not unmarshal: %v", err)
	}
	if !reflect.DeepEqual(r, &back) {
		t.Errorf("round trip changed the report:\n got: %+v\nwant: %+v", back, r)
	}
}

func TestRunReportNoCache(t *testing.T) {
	m, _ := runMachine(t, core.Config{NoCache: true})
	r := NewRunReport(m, "", nil)
	if r.Cache != nil {
		t.Error("cache section must be omitted when the cache is disabled")
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"cache"`) {
		t.Error("cache key must not appear in the JSON of a cache-disabled run")
	}
}

func TestHeartbeatsThroughProgressPrinter(t *testing.T) {
	var sb strings.Builder
	pp := NewProgressPrinter(&sb)
	var events []Progress
	_, _ = runMachine(t, core.Config{
		ProgressEvery: 10_000,
		Progress: func(hb core.Heartbeat) {
			p := Progress{Cell: "test/nrev", Cycles: hb.Steps, SimNS: hb.SimNS, Inferences: hb.Inferences}
			events = append(events, p)
			pp.Event(p)
		},
	})
	if len(events) == 0 {
		t.Fatal("no heartbeats at a 10k-cycle period")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycles <= events[i-1].Cycles {
			t.Errorf("heartbeat cycles not increasing: %d then %d", events[i-1].Cycles, events[i].Cycles)
		}
	}
	first := strings.SplitN(sb.String(), "\n", 2)[0]
	if !strings.Contains(first, "psi: test/nrev:") || !strings.Contains(first, "MLIPS") {
		t.Errorf("unexpected heartbeat line %q", first)
	}
}

func TestProgressMLIPS(t *testing.T) {
	p := Progress{Inferences: 500, SimNS: 1_000_000} // 500 inf per sim-ms
	if got := p.MLIPS(); got != 0.5 {
		t.Errorf("MLIPS = %v, want 0.5", got)
	}
	if (Progress{}).MLIPS() != 0 {
		t.Error("zero-time MLIPS must be 0")
	}
}

func TestHostProfilesAndCounters(t *testing.T) {
	dir := t.TempDir()

	stop, err := StartCPUProfile(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	runMachine(t, core.Config{})
	stop()
	if fi, err := os.Stat(filepath.Join(dir, "cpu.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}

	if err := WriteMemProfile(filepath.Join(dir, "mem.pprof")); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "mem.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("mem profile not written: %v", err)
	}

	// No-op paths.
	if stop, err := StartCPUProfile(""); err != nil {
		t.Fatal(err)
	} else {
		stop()
	}
	if err := WriteMemProfile(""); err != nil {
		t.Fatal(err)
	}
	if addr, err := ServeDebug(""); err != nil || addr != "" {
		t.Errorf("empty ServeDebug: %q, %v", addr, err)
	}

	RecordRun(1234, 56, 90, 100, 1_000_000)
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The run counters are read back from the one metrics surface; the
	// expvar duplicates under /debug/vars are gone.
	if got := scrapeValue(t, addr, "psi_cycles_simulated_total"); got < 1234 {
		t.Errorf("psi_cycles_simulated_total = %v, want >= 1234", got)
	}
	if got := scrapeValue(t, addr, "psi_runs_total"); got < 1 {
		t.Errorf("psi_runs_total = %v, want >= 1", got)
	}
	if resp, err := http.Get("http://" + addr + "/debug/vars"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars status = %d, want 404", resp.StatusCode)
	}

	// The same listener serves the telemetry registry at /metrics in the
	// Prometheus text exposition, fed by the RecordRun above.
	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE psi_runs_total counter",
		"psi_cycles_simulated_total",
		"psi_inferences_total",
		"psi_cache_hit_ratio 0.9",
		"# TYPE psi_session_duration_seconds histogram",
		"psi_session_duration_seconds_count",
		"# TYPE psi_cache_sweeps_total counter",
		"psi_cache_sweep_lanes_total",
		"psi_cache_sweep_records_total",
		"psi_cache_sweep_wall_seconds_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// scrapeValue reads one unlabelled sample from the listener's /metrics.
func scrapeValue(t *testing.T, addr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample:\n%s", name, body)
	return 0
}
