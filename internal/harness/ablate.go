package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/progs"
)

// AblationRow reports one machine variant's cost on one workload.
type AblationRow struct {
	Feature  string  `json:"feature"`
	Workload string  `json:"workload"`
	BaseMS   float64 `json:"base_ms"`   // the full PSI configuration
	VarMS    float64 `json:"var_ms"`    // with the feature ablated (or PSI-II enabled)
	DeltaPct float64 `json:"delta_pct"` // (VarMS/BaseMS - 1) * 100; negative = variant faster
}

// ablation is one machine variant of the ablation study.
type ablation struct {
	name string
	feat core.Features
}

// ablationVariants lists the design choices the paper's data speaks to.
func ablationVariants() []ablation {
	return []ablation{
		{"no frame buffers", core.Features{NoFrameBuffers: true}},
		{"no control-frame buffers", core.Features{NoCtrlBuffers: true}},
		{"no last-call optimization", core.Features{NoLCO: true}},
		{"no Write-Stack command", core.Features{NoWriteStack: true}},
		{"no trail buffer", core.Features{NoTrailBuffer: true}},
		{"PSI-II indexing", core.Features{Indexing: true}},
	}
}

// ablationWorkloads picks a spread of styles: deterministic list code,
// search, and the OO window system.
func ablationWorkloads() []progs.Benchmark {
	return []progs.Benchmark{progs.NReverse, progs.QueensFirst, progs.BUP2, progs.Window1}
}

// Ablations measures every feature variant on every ablation workload.
func Ablations() ([]AblationRow, error) { return AblationsWith(Options{}) }

// AblationsWith is Ablations under explicit worker options. Under
// KeepGoing a failed base run drops the whole workload (its deltas have
// no denominator) and a failed variant run drops that row; every
// failure is recorded in the degraded log.
func AblationsWith(o Options) ([]AblationRow, error) { return ablations(runPlan(o, ablationCells())) }

// ablationCells lists each workload's base cell — the full PSI
// configuration, which a full evaluation's Table 1 run already serves —
// then every (workload, variant) cell, workload-major.
func ablationCells() []cell {
	ws := ablationWorkloads()
	cells := cellsOf("ablate/base", ws...)
	for _, b := range ws {
		for _, v := range ablationVariants() {
			cells = append(cells, cell{label: "ablate/" + v.name + "/" + b.Name, b: b, feat: v.feat, variant: v.name})
		}
	}
	return cells
}

func ablations(p *plan) ([]AblationRow, error) {
	cells, n := ablationCells(), len(ablationWorkloads())
	baseMS := map[string]float64{}
	if _, err := rows(p, "ablations", cells[:n], func(c cell, r, _ *result) float64 {
		baseMS[c.b.Name] = r.ms()
		return 0
	}); err != nil {
		return nil, err
	}
	// A workload whose base run failed is dropped whole: its deltas have
	// no denominator.
	var vcells []cell
	for _, c := range cells[n:] {
		if _, ok := baseMS[c.b.Name]; ok {
			vcells = append(vcells, c)
		}
	}
	return rows(p, "ablations", vcells, func(c cell, r, _ *result) AblationRow {
		base := baseMS[c.b.Name]
		return AblationRow{Feature: c.variant, Workload: c.b.Name, BaseMS: base, VarMS: r.ms(), DeltaPct: (r.ms()/base - 1) * 100}
	})
}

// FormatAblations renders the ablation study.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation study: simulated time change per removed feature (+%% = slower without it)\n")
	fmt.Fprintf(&b, "%-26s %-16s %9s %9s %8s\n", "variant", "workload", "base(ms)", "var(ms)", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %-16s %9.1f %9.1f %+7.1f%%\n",
			r.Feature, r.Workload, r.BaseMS, r.VarMS, r.DeltaPct)
	}
	return b.String()
}
