package harness

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/micro"
	"repro/internal/obs"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/word"
)

// cell is one row (or column) of an evaluation section: a labelled view
// of one PSI run and, for Table 1, of the workload's DEC-10 run.
type cell struct {
	label   string // section-qualified, e.g. "table2/8 puzzle"
	b       progs.Benchmark
	feat    core.Features
	variant string        // the ablation variant feat encodes ("" = the full PSI configuration)
	dec     bool          // also time the DEC-10 baseline
	sweep   *pmms.Sweeper // taps the memory commands of the run serving the cell (Figure 1, the cache lab)
}

// cellsOf labels one default-configuration cell per benchmark.
func cellsOf(prefix string, bs ...progs.Benchmark) []cell {
	cells := make([]cell, len(bs))
	for i, b := range bs {
		cells[i] = cell{label: prefix + "/" + b.Name, b: b}
	}
	return cells
}

// runKey identifies one plan run; cells with equal keys share it. A cell
// the fault plan's only= filter matches keys on its own label, so it
// gets a faulted run of its own while the other cells share the clean
// run.
type runKey struct {
	name    string
	feat    core.Features
	faulted string
	dec     bool
}

// result is the immutable outcome of one plan run.
type result struct {
	stats      micro.Stats
	area       [5]cache.AreaStats
	total      cache.AreaStats
	timeNS     int64
	inferences int64
}

func (r *result) ms() float64 { return float64(r.timeNS) / 1e6 }

// plan simulates each distinct (workload, features) pair its sections
// need once, and every section reads its cells from those runs: Tables
// 1-7 and the ablation baselines are views of the same statistics, and
// the Figure 1 and cache-lab sweepers tap the memory commands of the
// runs serving their cells.
type plan struct {
	o     Options
	runs  map[runKey]int
	keys  []runKey
	first []cell            // the first cell each run serves; it labels the run
	taps  [][]*pmms.Sweeper // the sweepers each run feeds
	res   []result
	errs  []error
}

// runPlan registers the runs the sections' cells need, in cell order,
// and simulates them in one fan-out over the workers, longest first (see
// dispatchOrder). Results land by run index, so the output is the same
// for any worker count.
func runPlan(o Options, sections ...[]cell) *plan {
	p := &plan{o: o, runs: map[runKey]int{}}
	for _, cells := range sections {
		for _, c := range cells {
			i := p.need(c, false)
			if c.sweep != nil {
				p.taps[i] = append(p.taps[i], c.sweep)
			}
			if c.dec {
				p.need(c, true)
			}
		}
	}
	order := p.dispatchOrder()
	res, errs := parMapErrs(o.workers(), order, p.exec)
	p.res, p.errs = make([]result, len(p.keys)), make([]error, len(p.keys))
	for j, i := range order {
		p.res[i], p.errs[i] = res[j], errs[j]
	}
	return p
}

// dispatchOrder is the order the plan's runs start in: longest first, so
// no worker draws a long run after the others have run dry. A run's
// cost is its workload's paper time (progs.Benchmark.PaperPSIMS, 0 for
// the workloads outside Table 1), descending and stable; the tapped runs
// go right after the heaviest one, because their sweeps add host work
// the paper time does not show.
func (p *plan) dispatchOrder() []int {
	order := make([]int, len(p.keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(p.first[b].b.PaperPSIMS, p.first[a].b.PaperPSIMS)
	})
	if len(order) > 1 {
		tapped := func(i int) int { return min(len(p.taps[i]), 1) }
		slices.SortStableFunc(order[1:], func(a, b int) int { return tapped(b) - tapped(a) })
	}
	return order
}

func (p *plan) key(c cell, dec bool) runKey {
	k := runKey{name: c.b.Name, feat: c.feat, dec: dec}
	if !dec && p.o.Fault != nil && p.o.Fault.Matches(c.label) {
		k.faulted = c.label
	}
	return k
}

// need registers the run serving c and returns its index.
func (p *plan) need(c cell, dec bool) int {
	k := p.key(c, dec)
	i, ok := p.runs[k]
	if !ok {
		i = len(p.keys)
		p.runs[k] = i
		p.keys = append(p.keys, k)
		p.first = append(p.first, c)
		p.taps = append(p.taps, nil)
	}
	return i
}

// exec simulates run i. The run is labelled with the first cell it
// serves — in heartbeats, spans and fault matching — and that label
// matches the fault plan exactly when the run is a faulted one.
func (p *plan) exec(i int) (r result, err error) {
	k, c := p.keys[i], p.first[i]
	if p.o.Spans != nil {
		name, eng := c.label, "psi"
		if k.dec {
			name, eng = c.label+"/dec10", "dec10"
		}
		done := p.o.Spans.Start(name, "cell", int64(i+1))
		defer func() { done(map[string]string{"engine": eng, "status": engine.ClassName(err)}) }()
	}
	if k.dec {
		m, err := runDECWith(p.o, c.b)
		if err != nil {
			return result{}, err
		}
		return result{timeNS: m.TimeNS()}, nil
	}
	ro := p.o.runOpts(c.label)
	ro.feat = c.feat
	ro.spanTID = int64(i + 1)
	ro.mem = memTap(p.taps[i])
	start := time.Now()
	run, err := runBench(c.b, ro)
	if err != nil {
		return result{}, err
	}
	defer run.Release()
	m := run.Machine
	if taps := p.taps[i]; len(taps) > 0 {
		steps, wall := m.Stats().Steps, time.Since(start).Nanoseconds()
		for _, s := range taps {
			s.AddCycles(steps)
			obs.RecordSweep(s.Lanes(), steps, wall)
		}
	}
	return result{
		stats:      *m.Stats(),
		area:       m.Cache().Area,
		total:      m.Cache().Total,
		timeNS:     m.TimeNS(),
		inferences: m.Inferences(),
	}, nil
}

// get returns the results serving c: its PSI run and, for a Table 1
// cell, its DEC-10 run. A failure of either fails the cell, the PSI one
// first (the order a Table 1 row reads them in).
func (p *plan) get(c cell) (psi, dec *result, err error) {
	i := p.runs[p.key(c, false)]
	if !c.dec {
		return &p.res[i], nil, p.errs[i]
	}
	j := p.runs[p.key(c, true)]
	return &p.res[i], &p.res[j], cmp.Or(p.errs[i], p.errs[j])
}

// rows derives one section's rows from the plan, in cell order. A failed
// run fails every cell it serves, each attributed under its own label
// (see cellErrs).
func rows[R any](p *plan, section string, cells []cell, row func(c cell, psi, dec *result) R) ([]R, error) {
	errs := cellErrs{o: p.o, section: section}
	out := make([]R, 0, len(cells))
	for _, c := range cells {
		psi, dec, err := p.get(c)
		if err != nil {
			errs.add(c.label, err)
			continue
		}
		out = append(out, row(c, psi, dec))
	}
	if err := errs.err(); err != nil {
		return nil, err
	}
	return out, nil
}

// sweepTap fans one run's memory commands out to the sweepers tapping
// it; predSweepTap also forwards the predicate-context switches.
type (
	sweepTap     []*pmms.Sweeper
	predSweepTap struct{ sweepTap }
)

func (t sweepTap) Access(op micro.CacheOp, a word.Addr) {
	for _, s := range t {
		s.Access(op, a)
	}
}

func (t predSweepTap) EnterPredicate(id int) {
	for _, s := range t.sweepTap {
		s.EnterPredicate(id)
	}
}

// memTap is the core.Config.Mem tap feeding a run's sweepers (nil for
// none). Predicate context is armed only when a sweeper classifies its
// misses: it is the only reader, and tracking it costs a code-range
// lookup per instruction.
func memTap(ss []*pmms.Sweeper) micro.MemSink {
	if len(ss) == 0 {
		return nil
	}
	if slices.ContainsFunc(ss, (*pmms.Sweeper).Classified) {
		return predSweepTap{ss}
	}
	return sweepTap(ss)
}
