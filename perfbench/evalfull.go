package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// The eval-full workload: the complete paper evaluation, the same
// computation as `psibench all`, checked byte for byte against the
// goldens under docs/.

// goldens are the pinned evaluation outputs, read from the checkout.
type goldens struct{ text, json []byte }

func loadGoldens() (*goldens, error) {
	var g goldens
	var err error
	if g.text, err = os.ReadFile(filepath.Join("docs", "evaluation-output.txt")); err != nil {
		return nil, err
	}
	if g.json, err = os.ReadFile(filepath.Join("docs", "evaluation-output.json")); err != nil {
		return nil, err
	}
	return &g, nil
}

// checkGolden reports the first byte where got departs from want.
func checkGolden(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s differs from the golden at byte %d (got %d bytes, want %d)", what, i, len(got), len(want))
}

// check verifies both renderings of an evaluation.
func (g *goldens) check(e *harness.Evaluation) error {
	if err := checkGolden("evaluation text", []byte(e.Text()), g.text); err != nil {
		return err
	}
	js, err := e.JSON()
	if err != nil {
		return err
	}
	return checkGolden("evaluation JSON", js, g.json)
}

// evalOptions is the eval-full configuration: the fast engine on one
// worker per CPU.
func evalOptions() harness.Options {
	return harness.Options{Fast: true, Workers: nproc()}
}

// section is one evaluation section, run by its …With call.
type section struct {
	name string
	run  func(o harness.Options, e *harness.Evaluation) error
}

// sections lists the evaluation in harness.EvaluationWith's order.
var sections = []section{
	{"table1", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Table1, err = harness.Table1With(o)
		return
	}},
	{"table2", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Table2, err = harness.Table2With(o)
		return
	}},
	{"table3", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Table3, err = harness.Table3With(o)
		return
	}},
	{"table4", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Table4, err = harness.Table4With(o)
		return
	}},
	{"table5", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Table5, err = harness.Table5With(o)
		return
	}},
	{"table6", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Table6, err = harness.Table6With(o)
		return
	}},
	{"table7", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Table7, err = harness.Table7With(o)
		return
	}},
	{"fig1", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Figure1, err = harness.Figure1With(o)
		return
	}},
	{"ablate", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.Ablations, err = harness.AblationsWith(o)
		return
	}},
	{"lab", func(o harness.Options, e *harness.Evaluation) (err error) {
		e.CacheLab, err = harness.CacheLabWith(o)
		return
	}},
}

// evaluate runs one full evaluation and checks it against the goldens.
// With a tracer, each section runs through its own …With call inside a
// "harness.<section>" span, and the cell and simulation spans the
// harness records through Options.Spans become that span's children.
func evaluate(g *goldens, tr *Tracer, req int64) (time.Duration, error) {
	o := evalOptions()
	start := time.Now()
	var e *harness.Evaluation
	if tr == nil {
		var err error
		if e, err = harness.EvaluationWith(o); err != nil {
			return 0, err
		}
	} else {
		root := tr.Start("eval", 0, req)
		e = &harness.Evaluation{Schema: harness.EvaluationSchema}
		for _, s := range sections {
			so := o
			so.Spans = telemetry.NewSpanLog()
			base := time.Now()
			sp := tr.Start("harness."+s.name, root, req)
			err := s.run(so, e)
			tr.End(sp)
			if err != nil {
				return 0, err
			}
			tr.importHarness(so.Spans, base, sp, req)
		}
		tr.End(root)
	}
	took := time.Since(start)
	return took, g.check(e)
}
