package harness

import (
	"repro/internal/cache"
	"repro/internal/mapper"
	"repro/internal/micro"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/trace"
	"repro/internal/word"
)

// ---- Table 1 -------------------------------------------------------------

// T1Row is one Table 1 row: execution times on both machines.
type T1Row struct {
	Name       string  `json:"name"`
	PSIMS      float64 `json:"psi_ms"`
	DECMS      float64 `json:"dec_ms"`
	Ratio      float64 `json:"ratio"` // DEC/PSI
	PaperPSIMS float64 `json:"paper_psi_ms"`
	PaperDECMS float64 `json:"paper_dec_ms"`
	PaperRatio float64 `json:"paper_ratio"`
	Inferences int64   `json:"inferences"`
}

// Table1 measures every benchmark on both engines.
func Table1() ([]T1Row, error) { return Table1With(Options{}) }

// Table1With is Table1 under explicit worker options.
func Table1With(o Options) ([]T1Row, error) { return table1(runPlan(o, table1Cells())) }

func table1Cells() []cell {
	cells := cellsOf("table1", progs.Table1()...)
	for i := range cells {
		cells[i].dec = true
	}
	return cells
}

func table1(p *plan) ([]T1Row, error) {
	return rows(p, "table1", table1Cells(), func(c cell, psi, dec *result) T1Row {
		b := c.b
		return T1Row{
			Name:       b.Name,
			PSIMS:      psi.ms(),
			DECMS:      dec.ms(),
			Ratio:      dec.ms() / psi.ms(),
			PaperPSIMS: b.PaperPSIMS,
			PaperDECMS: b.PaperDECMS,
			PaperRatio: b.PaperDECMS / b.PaperPSIMS,
			Inferences: psi.inferences,
		}
	})
}

// ---- Table 2 -------------------------------------------------------------

// T2Row is one Table 2 row: firmware module step ratios (percent).
type T2Row struct {
	Name string `json:"name"`
	// Modules is ordered as micro.Module: control, unify, trail,
	// get_arg, cut, built.
	Modules [micro.NumModules]float64 `json:"modules"`
}

// Table2 measures the interpreter-module step distribution.
func Table2() ([]T2Row, error) { return Table2With(Options{}) }

// Table2With is Table2 under explicit worker options.
func Table2With(o Options) ([]T2Row, error) { return table2(runPlan(o, table2Cells())) }

func table2Cells() []cell { return cellsOf("table2", progs.Table2Set()...) }

func table2(p *plan) ([]T2Row, error) {
	return rows(p, "table2", table2Cells(), func(c cell, r, _ *result) T2Row {
		row := T2Row{Name: c.b.Name}
		for m := micro.Module(0); m < micro.NumModules; m++ {
			row.Modules[m] = r.stats.ModuleRatio(m) * 100
		}
		return row
	})
}

// ---- Table 3 -------------------------------------------------------------

// T3Row is one Table 3 row: cache command rates per microstep (percent).
type T3Row struct {
	Name       string  `json:"name"`
	Read       float64 `json:"read"`
	WriteStack float64 `json:"write_stack"`
	Write      float64 `json:"write"`
	WriteTotal float64 `json:"write_total"`
	Total      float64 `json:"total"`
}

// Table3 measures the cache command frequency of each workload.
func Table3() ([]T3Row, error) { return Table3With(Options{}) }

// Table3With is Table3 under explicit worker options.
func Table3With(o Options) ([]T3Row, error) { return table3(runPlan(o, hardwareCells("table3"))) }

// hardwareCells lists the cells of one of the hardware Tables 3-5.
func hardwareCells(section string) []cell { return cellsOf(section, progs.HardwareSet()...) }

func table3(p *plan) ([]T3Row, error) {
	return rows(p, "table3", hardwareCells("table3"), func(c cell, r, _ *result) T3Row {
		read := r.stats.CacheOpRatio(micro.OpRead) * 100
		ws := r.stats.CacheOpRatio(micro.OpWriteStack) * 100
		wr := r.stats.CacheOpRatio(micro.OpWrite) * 100
		return T3Row{
			Name: c.b.Name, Read: read, WriteStack: ws, Write: wr,
			WriteTotal: ws + wr, Total: read + ws + wr,
		}
	})
}

// ---- Table 4 -------------------------------------------------------------

// T4Row is one Table 4 row: access share per memory area (percent).
type T4Row struct {
	Name  string     `json:"name"`
	Areas [5]float64 `json:"areas"` // heap, global, local, control, trail
}

// Table4 measures the per-area access distribution.
func Table4() ([]T4Row, error) { return Table4With(Options{}) }

// Table4With is Table4 under explicit worker options.
func Table4With(o Options) ([]T4Row, error) { return table4(runPlan(o, hardwareCells("table4"))) }

func table4(p *plan) ([]T4Row, error) {
	return rows(p, "table4", hardwareCells("table4"), func(c cell, r, _ *result) T4Row {
		row := T4Row{Name: c.b.Name}
		for k := 0; k < 5; k++ {
			row.Areas[k] = r.stats.AreaAccessRatio(word.AreaID(k)) * 100
		}
		return row
	})
}

// ---- Table 5 -------------------------------------------------------------

// T5Row is one Table 5 row: cache hit ratios per area (percent).
type T5Row struct {
	Name  string     `json:"name"`
	Areas [5]float64 `json:"areas"` // heap, global, local, control, trail
	Total float64    `json:"total"`
}

// Table5 measures per-area cache hit ratios with the PSI cache.
func Table5() ([]T5Row, error) { return Table5With(Options{}) }

// Table5With is Table5 under explicit worker options.
func Table5With(o Options) ([]T5Row, error) { return table5(runPlan(o, hardwareCells("table5"))) }

func table5(p *plan) ([]T5Row, error) {
	return rows(p, "table5", hardwareCells("table5"), func(c cell, r, _ *result) T5Row {
		row := T5Row{Name: c.b.Name, Total: r.total.HitRatio() * 100}
		for k := 0; k < 5; k++ {
			row.Areas[k] = r.area[k].HitRatio() * 100
		}
		return row
	})
}

// ---- Figure 1 and the cache ablations -------------------------------------

// Fig1 holds the Figure 1 sweep plus the one-set and store-through
// ablations discussed alongside it.
type Fig1 struct {
	Workload string       `json:"workload"`
	Points   []pmms.Point `json:"points"`
	// Ablations at 8K words on the same trace:
	TwoSet8K     float64 `json:"two_set_8k"`    // paper configuration
	OneSet8K     float64 `json:"one_set_8k"`    // direct-mapped, same capacity
	StoreThrough float64 `json:"store_through"` // store-through instead of store-in
	// Per-workload one-set penalty for the programs the paper names.
	OneSetPenalty map[string]float64 `json:"one_set_penalty"`
	// PenaltyOrder lists OneSetPenalty's keys in benchmark order, so
	// formatting never depends on map iteration order.
	PenaltyOrder []string `json:"penalty_order"`
}

// Figure1 replays the WINDOW cache-command stream over cache sizes from
// 8 words to 8K words (the paper's sweep) and computes the ablations.
func Figure1() (*Fig1, error) { return Figure1With(Options{}) }

// Figure1With is Figure1 under explicit worker options: a plan of the
// Figure 1 cells alone. See figure1Cells for how the sweep is fed.
func Figure1With(o Options) (*Fig1, error) {
	cells := figure1Cells()
	return figure1(runPlan(o, cells), cells)
}

// figure1Cells lists the Figure 1 cells, WINDOW first, each carrying
// the sweeper that taps the memory commands of the run serving it —
// COLLECT without the log, on either accounting path. WINDOW's sweeper
// carries the whole capacity sweep plus the ablation configurations
// (pmms.LegacyLanes); the other penalty workloads carry the two
// configurations of the one-set penalty. In a full evaluation the cells
// ride the default-configuration runs the tables already make.
func figure1Cells() []cell {
	cells := cellsOf("fig1", progs.Window1, progs.Puzzle8, progs.BUP3)
	cells[0].sweep = pmms.NewSweeper(pmms.LegacyLanes())
	for i := range cells[1:] {
		cells[i+1].sweep = pmms.NewSweeper([]cache.Config{cache.PSI, pmms.OneSetConfig})
	}
	return cells
}

func figure1(p *plan, cells []cell) (*Fig1, error) {
	ok, err := rows(p, "figure1", cells, func(c cell, _, _ *result) cell { return c })
	if err != nil {
		return nil, err
	}
	if len(ok) == 0 || ok[0].b.Name != progs.Window1.Name {
		// Degraded: the WINDOW sweep carries the capacity curve and the
		// ablation points — without it there is no figure to report.
		return nil, nil
	}

	// WINDOW's lanes: the capacity sweep, then the paper configuration,
	// the one-set and the store-through ablations.
	nSizes := len(pmms.DefaultSizes())
	iTwoSet, iOneSet, iThrough := nSizes, nSizes+1, nSizes+2
	win := ok[0].sweep
	f := &Fig1{Workload: progs.Window1.Name, OneSetPenalty: map[string]float64{}}
	for i := range nSizes {
		f.Points = append(f.Points, win.PointAt(i))
	}
	f.TwoSet8K = win.Improvement(iTwoSet)
	// The paper compares "two 4K-word sets" (the machine) against "one
	// 4K-word set": half the capacity, direct-mapped.
	f.OneSet8K = win.Improvement(iOneSet)
	f.StoreThrough = win.Improvement(iThrough)

	// A degraded penalty workload is missing from ok: the curve survives
	// without it.
	for _, c := range ok {
		s := c.sweep
		two, one := s.Improvement(0), s.Improvement(1)
		if c.b.Name == progs.Window1.Name {
			two, one = f.TwoSet8K, f.OneSet8K
		}
		f.OneSetPenalty[c.b.Name] = two - one
		f.PenaltyOrder = append(f.PenaltyOrder, c.b.Name)
	}
	return f, nil
}

// ---- Table 6 -------------------------------------------------------------

// T6 is the work-file access-mode measurement for one workload.
type T6 struct {
	Workload string         `json:"workload"`
	Usage    mapper.WFUsage `json:"usage"`
}

// Table6 measures the dynamic work-file access modes (the paper shows
// BUP; other programs give close results).
func Table6() (*T6, error) { return Table6With(Options{}) }

// Table6With is Table6 under explicit worker options. The usage is read
// from the run's micro.Stats (see mapper.FromStats). Under KeepGoing a
// failed run degrades the whole section (it is a single measurement):
// the table is reported as nil and the failure recorded.
func Table6With(o Options) (*T6, error) { return table6(runPlan(o, table6Cells())) }

func table6Cells() []cell { return cellsOf("table6", progs.BUP3) }

func table6(p *plan) (*T6, error) {
	ts, err := rows(p, "table6", table6Cells(), func(c cell, r, _ *result) T6 {
		return T6{Workload: c.b.Name, Usage: mapper.FromStats(&r.stats)}
	})
	if err != nil || len(ts) == 0 {
		return nil, err
	}
	return &ts[0], nil
}

// ---- Table 7 -------------------------------------------------------------

// T7Col is the branch-operation distribution for one workload.
type T7Col struct {
	Name   string                      `json:"name"`
	Rates  [micro.NumBranchOps]float64 `json:"rates"`  // percent of steps, Table 7 row order
	Branch float64                     `json:"branch"` // total non-nop percent
	Data   float64                     `json:"data"`   // branch steps with data manipulation (percent of steps)
}

// Table7 measures the dynamic branch-field operations for the paper's
// three programs.
func Table7() ([]T7Col, error) { return Table7With(Options{}) }

// Table7With is Table7 under explicit worker options.
func Table7With(o Options) ([]T7Col, error) { return table7(runPlan(o, table7Cells())) }

func table7Cells() []cell { return cellsOf("table7", progs.BUP3, progs.Window1, progs.Puzzle8) }

func table7(p *plan) ([]T7Col, error) {
	return rows(p, "table7", table7Cells(), func(c cell, r, _ *result) T7Col {
		s := &r.stats
		col := T7Col{Name: c.b.Name}
		for op := micro.BranchOp(0); op < micro.NumBranchOps; op++ {
			col.Rates[op] = s.BranchRatio(op) * 100
			if !op.IsNop() {
				col.Branch += col.Rates[op]
			}
		}
		if s.Steps > 0 {
			col.Data = float64(s.BranchData) / float64(s.Steps) * 100
		}
		return col
	})
}

// TraceFor produces a COLLECT trace of a benchmark (for the CLI tools).
func TraceFor(b progs.Benchmark) (*trace.Log, error) {
	r, err := RunPSI(b, true)
	if err != nil {
		return nil, err
	}
	t := r.Trace
	r.Release()
	return t, nil
}
