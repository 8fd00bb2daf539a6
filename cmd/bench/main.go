// Bench measures the host-side benchmark gates and writes each area as
// one psi-bench/v1 record, BENCH_<area>.json:
//
//	engine  engine.Session vs direct Solutions.Next (<= 2% overhead)
//	fast    fast (batched) vs exact per-cycle accounting (>= 1.5x)
//	obs     sampling profiler on the fast engine (<= 10% overhead)
//	pmms    classified policy grid vs streaming sweep (<= 1.3x per lane),
//	        plus the streaming vs one-replay-per-configuration speedup
//
// Usage: go run ./cmd/bench [area...]   (no area = all of them)
//
// Every area times its lanes with one interleaved round-robin timer, so
// the lanes sample the same host frequency drift. A ratio's value is the
// ratio of the lanes' best times; the quartiles of the per-round ratios
// are recorded beside it as the spread. The process exits 1 when a bound
// is missed or a run fails, and 2 on an unknown area.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

const schema = "psi-bench/v1"

// areas lists the measurable areas in the order they run. engine, fast
// and obs time nreverse lanes on one pooled machine (benchSim).
var areas = []struct {
	name    string
	measure func() (*record, error)
}{
	{"engine", func() (*record, error) {
		return benchSim("engine",
			"direct = Solutions.Next; session = core.NewSession + Session.Next(nil), which takes the Drive fast path (one unbounded step, no context polling); exact accounting on one pooled machine, cycle counts cross-checked every run",
			ratio{Name: "session_over_direct", num: 1, den: 0, scale: 1, Op: "<=", Bound: 1.02},
			simLane{"direct", engine.ModeExact, core.Config{}, false},
			simLane{"session", engine.ModeExact, core.Config{}, true})
	}},
	{"fast", func() (*record, error) {
		return benchSim("fast",
			"exact = per-cycle sink funnel; fast = batched statistics; both lanes execute the identical simulated cycle stream on one pooled machine (cycle counts and accounting mode checked every run, full statistics locked by the fast differential suite)",
			ratio{Name: "speedup", num: 0, den: 1, scale: 1, Op: ">=", Bound: 1.5},
			simLane{"exact", engine.ModeExact, core.Config{}, false},
			simLane{"fast", engine.ModeFast, core.Config{Fast: true}, false})
	}},
	{"obs", func() (*record, error) {
		return benchSim("obs",
			fmt.Sprintf("bare = fast engine; sampled = fast engine + sampling profiler (stride %d); one pooled machine, both lanes verified fast, cycle counts cross-checked and the sampled total checked against Steps every run (sampling accuracy is gated by TestSamplingDifferentialTable1)",
				int64(telemetry.DefaultSampleStride)),
			ratio{Name: "sampler_over_bare", num: 1, den: 0, scale: 1, Op: "<=", Bound: 1.10},
			simLane{"fast_bare", engine.ModeFast, core.Config{Fast: true}, false},
			simLane{"fast_sampled", engine.ModeFast, core.Config{Fast: true, Sample: telemetry.NewSamplingProfiler(0)}, false})
	}},
	{"pmms", benchPMMS},
}

// record is one psi-bench/v1 document.
type record struct {
	Schema string `json:"schema"`
	Area   string `json:"area"`
	Date   string `json:"date"`
	Host   struct {
		CPU        string `json:"cpu"`
		CPUs       int    `json:"cpus"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
	} `json:"host"`
	Workload string           `json:"workload"`
	Method   string           `json:"method"`
	Rounds   int              `json:"rounds"`
	LanesNS  map[string]int64 `json:"lanes_ns"`
	Ratios   []ratio          `json:"ratios"`
	OK       bool             `json:"ok"`
}

// ratio is one measurement derived from two lanes, scale * num / den,
// over the lanes' best times (Value) and over each round's times (the
// quartiles). An empty Op records the ratio without a bound.
type ratio struct {
	Name        string  `json:"name"`
	Value       float64 `json:"value"`
	Op          string  `json:"op,omitempty"`
	Bound       float64 `json:"bound,omitempty"`
	RoundQ1     float64 `json:"round_q1"`
	RoundMedian float64 `json:"round_median"`
	RoundQ3     float64 `json:"round_q3"`
	OK          bool    `json:"ok"`

	num, den int // lane indices
	scale    float64
}

// lane is one timed configuration of an area's workload. run returns an
// error when the run fails or breaks an equivalence check.
type lane struct {
	name string
	run  func() error
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run measures the named areas (all when names is empty), writes and
// prints one BENCH_<area>.json each and returns the process exit code.
func run(names []string, stdout, stderr io.Writer) int {
	var valid []string
	for _, a := range areas {
		valid = append(valid, a.name)
	}
	if len(names) == 0 {
		names = valid
	}
	for _, n := range names {
		if !slices.Contains(valid, n) {
			fmt.Fprintf(stderr, "bench: unknown area %q (valid: %s)\n", n, strings.Join(valid, ", "))
			return 2
		}
	}
	code := 0
	for _, a := range areas {
		if !slices.Contains(names, a.name) {
			continue
		}
		rec, err := a.measure()
		var buf []byte
		if err == nil {
			buf, err = json.MarshalIndent(rec, "", "  ")
		}
		if err == nil {
			buf = append(buf, '\n')
			err = os.WriteFile("BENCH_"+a.name+".json", buf, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", a.name, err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "BENCH_%s.json: %s", a.name, buf)
		if !rec.OK {
			code = 1
		}
	}
	return code
}

// interleave runs every lane once to warm up (round -1), then rounds
// times in round-robin order, and returns each lane's best time plus
// every timed round's time per lane.
func interleave(rounds int, lanes ...lane) (best []int64, perRound [][]int64, err error) {
	best = make([]int64, len(lanes))
	for r := -1; r < rounds; r++ {
		times := make([]int64, len(lanes))
		for i, l := range lanes {
			t0 := time.Now()
			if err := l.run(); err != nil {
				return nil, nil, fmt.Errorf("lane %s: %w", l.name, err)
			}
			times[i] = time.Since(t0).Nanoseconds()
			if r == 0 || times[i] < best[i] {
				best[i] = times[i]
			}
		}
		perRound = append(perRound, times)
	}
	return best, perRound[1:], nil
}

// measure times the lanes and evaluates the ratios into a record.
func measure(area, workload, method string, rounds int, lanes []lane, ratios ...ratio) (*record, error) {
	best, perRound, err := interleave(rounds, lanes...)
	if err != nil {
		return nil, err
	}
	rec := &record{Schema: schema, Area: area, Date: time.Now().Format("2006-01-02"),
		Workload: workload, Method: method, Rounds: rounds, LanesNS: map[string]int64{}, OK: true}
	rec.Host.CPU, rec.Host.CPUs, rec.Host.GOMAXPROCS = cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0)
	rec.Host.Go = runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH
	for i, l := range lanes {
		rec.LanesNS[l.name] = best[i]
	}
	for _, r := range ratios {
		rs := make([]float64, len(perRound))
		for i, t := range perRound {
			rs[i] = r.scale * float64(t[r.num]) / float64(t[r.den])
		}
		r.Value = r.scale * float64(best[r.num]) / float64(best[r.den])
		r.RoundQ1, r.RoundMedian, r.RoundQ3 = quartiles(rs)
		r.OK = within(r.Value, r.Op, r.Bound)
		rec.OK = rec.OK && r.OK
		rec.Ratios = append(rec.Ratios, r)
	}
	return rec, nil
}

// within reports whether value meets the bound; a value equal to the
// bound passes, and an empty op has no bound.
func within(value float64, op string, bound float64) bool {
	switch op {
	case "<=":
		return value <= bound
	case ">=":
		return value >= bound
	}
	return op == ""
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics.
func quartiles(xs []float64) (q1, median, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// cpuModel best-effort reads the host CPU model name (Linux only).
func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// simLane is one lane of the simulator areas (engine, fast, obs): a
// machine configuration and whether the query is driven through
// engine.Session or through Solutions.Next.
type simLane struct {
	name, mode string
	cfg        core.Config
	session    bool
}

// benchSim times lanes that run nreverse on one pooled (Reset) machine
// for 40 rounds. Every run of every lane must account the same Steps and
// run in the lane's accounting mode, and an attached sampling profiler
// must attribute every cycle.
func benchSim(area, method string, r ratio, specs ...simLane) (*record, error) {
	c, err := harness.Compile(progs.NReverse)
	if err != nil {
		return nil, err
	}
	m := core.New(c.Prog, core.Config{})
	var want int64
	var lanes []lane
	for _, sl := range specs {
		cfg := sl.cfg
		cfg.MaxSteps = 4_000_000_000
		sp, _ := cfg.Sample.(*telemetry.SamplingProfiler)
		lanes = append(lanes, lane{sl.name, func() error {
			if sp != nil {
				sp.Reset()
			}
			if !m.Reset(c.Prog, cfg) {
				return fmt.Errorf("machine refused Reset")
			}
			if got := m.AccountingMode(); got != sl.mode {
				return fmt.Errorf("runs in mode %q, want %q", got, sl.mode)
			}
			if sl.session {
				if st, err := core.NewSession(m, c.Query).Next(nil); st != engine.Solution {
					return fmt.Errorf("status %v: %v", st, err)
				}
			} else {
				sols := m.SolveQuery(c.Query)
				if _, ok := sols.Next(); !ok {
					return fmt.Errorf("no solution: %v", sols.Err())
				}
			}
			steps := m.Stats().Steps
			if want == 0 {
				want = steps
			} else if steps != want {
				return fmt.Errorf("accounted %d cycles, previous runs %d", steps, want)
			}
			if sp != nil && sp.Total() != steps {
				return fmt.Errorf("sampler attributed %d cycles of %d", sp.Total(), steps)
			}
			return nil
		}})
	}
	return measure(area, progs.NReverse.Name, method, 40, lanes, r)
}

// benchPMMS replays the quicksort trace through the 14 Figure 1 lanes
// (streaming and legacy) and the 36-lane default policy grid, 20 rounds.
func benchPMMS() (*record, error) {
	b := progs.QuickSort
	l, err := harness.TraceFor(b)
	if err != nil {
		return nil, err
	}
	cfgs, gridCfgs := pmms.LegacyLanes(), pmms.DefaultGrid().Configs()
	ref, err := psiLane(gridCfgs)
	if err != nil {
		return nil, err
	}
	lanes := []lane{
		{"streaming", func() error { pmms.NewSweeper(cfgs).ReplayLog(l); return nil }},
		{"legacy", func() error {
			for _, cfg := range cfgs {
				pmms.Replay(l, cfg)
			}
			return nil
		}},
		{"grid", func() error {
			s := pmms.NewSweeper(gridCfgs)
			s.Classify(ref)
			s.ReplayLog(l)
			return nil
		}},
	}
	return measure("pmms", fmt.Sprintf("%s trace (%d records)", b.Name, l.Len()),
		fmt.Sprintf("streaming = one pmms.Sweeper pass over the %d Figure 1 lanes; legacy = pmms.Replay per configuration; grid = one classified pass over the %d-lane default policy grid (every miss classified against the PSI lane); grid_per_lane = per-lane grid cost over per-lane streaming cost",
			len(cfgs), len(gridCfgs)),
		20, lanes,
		ratio{Name: "streaming_speedup", num: 1, den: 0, scale: 1},
		ratio{Name: "grid_per_lane", num: 2, den: 0, scale: float64(len(cfgs)) / float64(len(gridCfgs)), Op: "<=", Bound: 1.3})
}

// psiLane returns the index of the PSI cache configuration in a grid,
// the reference lane the grid's misses are classified against.
func psiLane(cfgs []cache.Config) (int, error) {
	if i := slices.Index(cfgs, cache.PSI); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("the grid has no lane with the PSI cache configuration to classify against")
}
