package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/kl0"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/telemetry"
	"repro/internal/term"
)

// Layer probes: the traced run's calls into each layer's public
// functions, on fixed inputs, so every figure they give is comparable
// across runs and seeds, and every count they take repeats exactly.

// replicate re-runs a served job in-process, layer by layer, under the
// request's span: compile (parse + kl0 for a program the daemon had
// never seen, the shared compiled-program cache for a corpus program),
// the borrow of a pooled machine, the run, and the report encoding. The
// client round trip minus this replica is the serving overhead.
func replicate(tr *Tracer, parent int, req int64, r Request) error {
	rep := tr.Start("replica", parent, req)
	defer tr.End(rep)
	s := r.Spec
	var c *harness.Compiled
	if r.Kind == "fresh" {
		sp := tr.Start("parse", rep, req)
		cs, err := parse.Clauses(s.Workload, s.Program)
		tr.End(sp)
		if err != nil {
			return err
		}
		sp = tr.Start("kl0", rep, req)
		prog, q, err := compileKL0(cs, s.Query)
		tr.End(sp)
		if err != nil {
			return err
		}
		c = &harness.Compiled{Prog: prog, Query: q, Procs: 1}
	} else {
		sp := tr.Start("harness.compile", rep, req)
		var err error
		c, err = harness.CompileKeyed(s.Key(), progs.Benchmark{Name: s.Workload, Source: s.Program, Query: s.Query})
		tr.End(sp)
		if err != nil {
			return err
		}
	}
	sp := tr.Start("core.open", rep, req)
	live, err := c.Open(core.Config{MaxSteps: 4_000_000_000, Flight: telemetry.NewFlight(0)})
	tr.End(sp)
	if err != nil {
		return err
	}
	defer live.Release()
	sp = tr.Start("core.run", rep, req)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	var runErr error
	for {
		st, err := live.Session.Next(ctx)
		if err != nil {
			runErr = err
			break
		}
		if st != engine.Solution {
			break
		}
		n++
		for _, t := range live.Session.Bindings() {
			_ = t.String() // the daemon renders each binding for the stream
		}
		if !s.All {
			break
		}
	}
	cancel()
	tr.End(sp)
	sp = tr.Start("obs.report", rep, req)
	report := obs.NewRunReport(live.Machine, s.Workload, nil)
	report.SetTermination(runErr)
	_, err = report.JSON()
	tr.End(sp)
	if err != nil {
		return err
	}
	if runErr != nil || (r.Kind == "fresh" && n != r.Solutions) {
		return fmt.Errorf("%s: in-process replica found %d solutions (%v), want %d", s.Workload, n, runErr, r.Solutions)
	}
	return nil
}

// compileKL0 compiles parsed clauses and a query, as the harness does.
func compileKL0(cs []*term.Term, query string) (*kl0.Program, *kl0.Query, error) {
	prog := kl0.NewProgram(nil)
	if err := prog.AddClauses(cs); err != nil {
		return nil, nil, err
	}
	g, err := parse.Term(query)
	if err != nil {
		return nil, nil, err
	}
	q, err := prog.CompileQuery(g)
	return prog, q, err
}

// compileProbe times parse.Clauses and the kl0 compile over the Table-1
// corpus plus a fixed set of fresh fact-base programs, and returns the
// cost per clause of each.
func compileProbe(tr *Tracer) (parseNS, kl0NS float64, err error) {
	type src struct{ name, source, query string }
	var srcs []src
	for _, b := range progs.Table1() {
		srcs = append(srcs, src{b.Name, b.Source, b.Query})
	}
	for i := 0; i < 16; i++ {
		r := freshProgram(0, 0, i)
		srcs = append(srcs, src{r.Spec.Workload, r.Spec.Program, r.Spec.Query})
	}
	root := tr.Start("probe.compile", 0, 0)
	defer tr.End(root)
	var clauses int
	var pt, kt time.Duration
	for _, s := range srcs {
		sp := tr.Start("parse", root, 0)
		cs, err := parse.Clauses(s.name, s.source)
		pt += tr.End(sp)
		if err != nil {
			return 0, 0, err
		}
		sp = tr.Start("kl0", root, 0)
		_, _, err = compileKL0(cs, s.query)
		kt += tr.End(sp)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		clauses += len(cs)
	}
	return float64(pt.Nanoseconds()) / float64(clauses), float64(kt.Nanoseconds()) / float64(clauses), nil
}

// coreMode is one machine configuration of the core probe.
type coreMode struct {
	name string
	cfg  core.Config
}

var coreModes = []coreMode{
	{"fast", core.Config{Fast: true}},
	{"exact", core.Config{}},
	{"nocache", core.Config{Fast: true, NoCache: true}},
}

// corePass is one pass of the Table-1 corpus in one mode.
type corePass struct {
	ns, cycles, inferences, accesses, hits int64
	openNS, reportNS                       []float64
}

// coreProbe runs the Table-1 corpus once in the given mode, each program
// through Compiled.Open and Session.Next to its first solution, as the
// harness runs it. The report of each run is encoded too (obs).
func coreProbe(tr *Tracer, m coreMode) (*corePass, error) {
	root := tr.Start("probe.core."+m.name, 0, 0)
	defer tr.End(root)
	p := &corePass{}
	for _, b := range progs.Table1() {
		c, err := harness.Compile(b)
		if err != nil {
			return nil, err
		}
		cfg := m.cfg
		cfg.MaxSteps = 4_000_000_000
		sp := tr.Start("core.open", root, 0)
		live, err := c.Open(cfg)
		p.openNS = append(p.openNS, float64(tr.End(sp).Nanoseconds()))
		if err != nil {
			return nil, err
		}
		sp = tr.Start("core."+m.name, root, 0)
		st, err := live.Session.Next(context.Background())
		p.ns += tr.End(sp).Nanoseconds()
		if st != engine.Solution {
			live.Release()
			return nil, fmt.Errorf("%s: no solution (%v)", b.Name, err)
		}
		mach := live.Machine
		p.cycles += mach.Stats().Steps
		p.inferences += mach.Inferences()
		if ch := mach.Cache(); ch != nil {
			p.accesses += ch.Total.Accesses
			p.hits += ch.Total.Hits
		}
		sp = tr.Start("obs.report", root, 0)
		_, err = obs.NewRunReport(mach, b.Name, nil).JSON()
		p.reportNS = append(p.reportNS, float64(tr.End(sp).Nanoseconds()))
		live.Release()
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// pmmsProbe sweeps the quick-sort trace through the legacy Figure 1
// lanes and through the default policy grid, returning ns per record
// and ns per lane-record.
func pmmsProbe(tr *Tracer) (perRecord, perLaneRecord float64, err error) {
	root := tr.Start("probe.pmms", 0, 0)
	defer tr.End(root)
	sp := tr.Start("harness.trace", root, 0)
	l, err := harness.TraceFor(progs.QuickSort)
	tr.End(sp)
	if err != nil {
		return 0, 0, err
	}
	records := float64(l.Len())
	sp = tr.Start("pmms.sweep", root, 0)
	s := pmms.NewSweeper(pmms.LegacyLanes())
	s.ReplayLog(l)
	perRecord = float64(tr.End(sp).Nanoseconds()) / records

	cfgs := pmms.DefaultGrid().Configs()
	ref := 0
	for i, cfg := range cfgs {
		if cfg == cache.PSI {
			ref = i
			break
		}
	}
	sp = tr.Start("pmms.grid", root, 0)
	g := pmms.NewSweeper(cfgs)
	g.Classify(ref)
	g.ReplayLog(l)
	perLaneRecord = float64(tr.End(sp).Nanoseconds()) / records / float64(len(cfgs))
	return perRecord, perLaneRecord, nil
}

// decProbe runs the Table-1 corpus on the DEC-10 baseline and returns
// the total time and procedure calls.
func decProbe(tr *Tracer) (ns, calls int64, err error) {
	root := tr.Start("probe.dec10", 0, 0)
	defer tr.End(root)
	for _, b := range progs.Table1() {
		sp := tr.Start("dec10", root, 0)
		m, err := harness.RunDEC(b)
		ns += tr.End(sp).Nanoseconds()
		if err != nil {
			return 0, 0, err
		}
		calls += m.Calls()
	}
	return ns, calls, nil
}
