package harness

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/pmms"
	"repro/internal/progs"
)

// ---- Cache-architecture lab ------------------------------------------------

// maxMissCauses bounds the "top miss causes" block of the lab report:
// the predicates past the first eight carry the long tail of the
// distribution and would only pad the report.
const maxMissCauses = 8

// LabLane is one grid lane of the cache lab: a cache configuration, its
// Figure 1 metrics on the lab workload, and its classified misses.
type LabLane struct {
	Config      string             `json:"config"`
	Words       int                `json:"words"`
	Ways        int                `json:"ways"`
	Replacement string             `json:"replacement"`
	Improvement float64            `json:"improvement"`
	HitRatio    float64            `json:"hit_ratio"`
	Breakdown   pmms.MissBreakdown `json:"miss_breakdown"`
}

// MissCause attributes part of the reference lane's misses to one
// predicate of the lab workload ("<main>" covers query glue and any
// cycles outside predicate context).
type MissCause struct {
	Predicate string `json:"predicate"`
	pmms.MissBreakdown
}

// CacheLab is the cache-architecture lab section: a replacement-policy x
// capacity x associativity grid swept over one workload's memory
// commands in a single pass, every miss classified (first-touch / capacity /
// conflict), and the reference lane's misses attributed to the
// predicates that caused them.
type CacheLab struct {
	Workload  string      `json:"workload"`
	RefConfig string      `json:"ref_config"`
	Lanes     []LabLane   `json:"lanes"`
	TopCauses []MissCause `json:"top_miss_causes"`
}

// CacheLabSection computes the lab section with default options.
func CacheLabSection() (*CacheLab, error) { return CacheLabWith(Options{}) }

// CacheLabWith computes the cache lab over the default grid on the
// Figure 1 workload (WINDOW), with the machine's own configuration
// (cache.PSI) as the reference lane for miss attribution.
func CacheLabWith(o Options) (*CacheLab, error) {
	return CacheLabFor(o, pmms.DefaultGrid(), progs.Window1)
}

// CacheLabFor computes the cache lab for an explicit grid and workload
// (the CLI's -grid flag parses into g): a plan of the lab cell alone.
// The whole grid costs no run of its own: the Sweeper taps the memory
// commands of the run serving the cell, plus the predicate context
// needed for miss attribution — in a full evaluation, the workload's
// default-configuration run the tables already make. The reference lane
// is the machine's configuration when the grid contains it, lane 0
// otherwise. Under KeepGoing a failed run degrades the whole section (it
// is a single measurement), like Table 6.
func CacheLabFor(o Options, g pmms.Grid, b progs.Benchmark) (*CacheLab, error) {
	if len(g.Configs()) == 0 {
		return nil, fmt.Errorf("cache lab: the grid has no valid configuration")
	}
	c := labCell(g, b)
	return cacheLab(runPlan(o, []cell{c}), c)
}

// labCell is the lab's cell: the workload's default-configuration run,
// tapped by a classifying sweeper over g's configurations (g must have
// at least one).
func labCell(g pmms.Grid, b progs.Benchmark) cell {
	cfgs := g.Configs()
	ref := max(slices.Index(cfgs, cache.PSI), 0)
	s := pmms.NewSweeper(cfgs)
	s.Classify(ref)
	return cell{label: "lab/" + b.Name, b: b, sweep: s}
}

func cacheLab(p *plan, c cell) (*CacheLab, error) {
	ok, err := rows(p, "cache_lab", []cell{c}, func(c cell, _, _ *result) cell { return c })
	if err != nil || len(ok) == 0 {
		return nil, err
	}
	comp, err := Compile(c.b)
	if err != nil {
		return nil, err
	}
	s := c.sweep
	lab := &CacheLab{Workload: c.b.Name, RefConfig: s.Cache(s.RefLane()).Config().String()}
	for i := range s.Lanes() {
		cfg := s.Cache(i).Config()
		lab.Lanes = append(lab.Lanes, LabLane{
			Config:      cfg.String(),
			Words:       cfg.Words,
			Ways:        cfg.Ways(),
			Replacement: cfg.Replacement.String(),
			Improvement: s.Improvement(i),
			HitRatio:    s.Cache(i).HitRatio(),
			Breakdown:   s.Misses(i),
		})
	}
	for _, pm := range s.PredMisses() {
		if len(lab.TopCauses) == maxMissCauses {
			break
		}
		lab.TopCauses = append(lab.TopCauses, MissCause{
			Predicate:     comp.Prog.ProcName(pm.Pred),
			MissBreakdown: pm.MissBreakdown,
		})
	}
	return lab, nil
}

// FormatCacheLab renders the lab grid in the Figure 1 style: one line
// per lane with a bar scaled to the best improvement, then the
// trace-grounded "top miss causes" block for the reference lane. A nil
// lab (a degraded keep-going evaluation) renders as a placeholder.
func FormatCacheLab(l *CacheLab) string {
	if l == nil {
		return "Cache lab: degraded — the grid workload failed (see degraded section)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Cache lab: replacement policy x capacity x associativity (workload %s)\n", l.Workload)
	fmt.Fprintf(&b, "%-8s %8s %5s %14s %10s %12s %10s %10s\n",
		"policy", "words", "ways", "improvement(%)", "hit-ratio", "first-touch", "capacity", "conflict")
	var max float64
	for _, ln := range l.Lanes {
		if ln.Improvement > max {
			max = ln.Improvement
		}
	}
	for _, ln := range l.Lanes {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", int(ln.Improvement/max*24+0.5))
		}
		fmt.Fprintf(&b, "%-8s %8d %5d %14.1f %10.3f %12d %10d %10d  %s\n",
			ln.Replacement, ln.Words, ln.Ways, ln.Improvement, ln.HitRatio,
			ln.Breakdown.FirstTouch, ln.Breakdown.Capacity, ln.Breakdown.Conflict, bar)
	}
	fmt.Fprintf(&b, "\nTop miss causes (reference lane %s):\n", l.RefConfig)
	fmt.Fprintf(&b, "  %-20s %10s %12s %10s %10s\n",
		"predicate", "misses", "first-touch", "capacity", "conflict")
	for _, mc := range l.TopCauses {
		fmt.Fprintf(&b, "  %-20s %10d %12d %10d %10d\n",
			mc.Predicate, mc.Misses, mc.FirstTouch, mc.Capacity, mc.Conflict)
	}
	return b.String()
}
