package harness

import (
	"encoding/json"
	"strings"

	"repro/internal/pmms"
	"repro/internal/progs"
)

// EvaluationSchema identifies the Evaluation JSON schema. Bump the
// suffix on any incompatible change.
const EvaluationSchema = "psi-evaluation/v1"

// Evaluation is the complete structured result of the paper's
// evaluation: every table, the Figure 1 sweep and the ablation study in
// one document. Text() renders the classic report (what `psibench all`
// prints); JSON() serializes the same data with a stable schema for
// downstream tooling. Both views come from one computation, so they can
// never disagree.
type Evaluation struct {
	Schema    string        `json:"schema"`
	Table1    []T1Row       `json:"table1"`
	Table2    []T2Row       `json:"table2"`
	Table3    []T3Row       `json:"table3"`
	Table4    []T4Row       `json:"table4"`
	Table5    []T5Row       `json:"table5"`
	Table6    *T6           `json:"table6"`
	Table7    []T7Col       `json:"table7"`
	Figure1   *Fig1         `json:"figure1"`
	Ablations []AblationRow `json:"ablations"`
	// CacheLab is the replacement-policy grid with classified misses
	// (additive to psi-evaluation/v1: absent documents predate the lab
	// or degraded under keep-going).
	CacheLab *CacheLab `json:"cache_lab,omitempty"`
	// Degraded lists the workloads a keep-going evaluation dropped
	// (empty and omitted on a fully successful run, so the schema stays
	// byte-compatible with psi-evaluation/v1 consumers).
	Degraded []DegradedRun `json:"degraded,omitempty"`
}

// Evaluate computes the full evaluation with default options.
func Evaluate() (*Evaluation, error) { return EvaluationWith(Options{}) }

// EvaluationWith computes the full evaluation. One plan simulates every
// workload the tables and the ablations need, once each, in a single
// fan-out over the option's workers; the Figure 1 and cache-lab
// sweepers tap the runs serving their cells. The sections are then
// derived from it in the classic order. The result is identical for any
// worker count.
// With KeepGoing set, failing workloads are dropped from their sections
// and listed in the result's Degraded field instead of aborting the
// evaluation.
func EvaluationWith(o Options) (*Evaluation, error) {
	if o.KeepGoing && o.Degraded == nil {
		o.Degraded = NewDegradedLog()
	}
	fig1, lab := figure1Cells(), labCell(pmms.DefaultGrid(), progs.Window1)
	p := runPlan(o, table1Cells(), table2Cells(), hardwareCells("table3"), hardwareCells("table4"),
		hardwareCells("table5"), table6Cells(), table7Cells(), ablationCells(), fig1, []cell{lab})
	e := &Evaluation{Schema: EvaluationSchema}
	for _, section := range []func() error{
		func() (err error) { e.Table1, err = table1(p); return },
		func() (err error) { e.Table2, err = table2(p); return },
		func() (err error) { e.Table3, err = table3(p); return },
		func() (err error) { e.Table4, err = table4(p); return },
		func() (err error) { e.Table5, err = table5(p); return },
		func() (err error) { e.Table6, err = table6(p); return },
		func() (err error) { e.Table7, err = table7(p); return },
		func() (err error) { e.Figure1, err = figure1(p, fig1); return },
		func() (err error) { e.Ablations, err = ablations(p); return },
		func() (err error) { e.CacheLab, err = cacheLab(p, lab); return },
	} {
		if err := section(); err != nil {
			return nil, err
		}
	}
	if o.Degraded != nil {
		e.Degraded = o.Degraded.Runs()
	}
	return e, nil
}

// All renders the complete evaluation — Tables 1-7, Figure 1 and the
// ablation study — exactly as `psibench all` prints it: each formatted
// section followed by a blank line. The output is byte-identical for any
// worker count. It is a thin wrapper over EvaluationWith; use that to
// also get the structured (JSON) form of the same computation.
func All(o Options) (string, error) {
	e, err := EvaluationWith(o)
	if err != nil {
		return "", err
	}
	return e.Text(), nil
}

// Text renders the evaluation exactly as `psibench all` prints it: each
// formatted section followed by a blank line.
func (e *Evaluation) Text() string {
	var b strings.Builder
	for _, s := range []string{
		FormatTable1(e.Table1),
		FormatTable2(e.Table2),
		FormatTable3(e.Table3),
		FormatTable4(e.Table4),
		FormatTable5(e.Table5),
		FormatTable6(e.Table6),
		FormatTable7(e.Table7),
		FormatFigure1(e.Figure1),
		FormatAblations(e.Ablations),
		FormatCacheLab(e.CacheLab),
	} {
		b.WriteString(s)
		b.WriteString("\n") // fmt.Println's newline after each section
	}
	if len(e.Degraded) > 0 {
		b.WriteString(FormatDegraded(e.Degraded))
		b.WriteString("\n")
	}
	return b.String()
}

// JSON serializes the evaluation (indented, trailing newline), the exact
// bytes `psibench -json` writes. Go's encoder sorts map keys and emits
// shortest-round-trip floats, so equal evaluations give equal bytes.
func (e *Evaluation) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
