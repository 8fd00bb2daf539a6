// Command psibench regenerates the paper's evaluation: Tables 1-7 and
// Figure 1, plus the cache ablations and the cache-architecture lab.
// Run with a table selector ("1".."7", "fig1", "ablate", "lab", "all")
// or "calib" for the Table 1 calibration view. The -j flag bounds the number of concurrently
// simulated machines; the output is byte-identical for any -j. -json
// additionally writes the whole evaluation as one structured document,
// -v streams live progress to stderr, and -cpuprofile/-memprofile/-http
// expose the Go host for profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/pmms"
	"repro/internal/progs"
	"repro/internal/telemetry"
)

func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		`usage: psibench [flags] [selector]

Regenerates the paper's evaluation. Selectors:
  all      every table, Figure 1 and the ablations (default)
  1..7     one table
  fig1     the cache-capacity sweep and its ablations
  ablate   the feature-ablation study
  lab      the cache lab: a replacement-policy grid with classified misses
  calib    the Table 1 calibration view (for dec10.NSPerUnit)

Flags:
`)
	flag.PrintDefaults()
	fmt.Fprintf(flag.CommandLine.Output(),
		`
The output is byte-identical for any -j; parallelism only changes
wall-clock time. -json and -v never alter stdout: the JSON document goes
to its own file and progress goes to stderr.
`)
}

func main() {
	jFlag := flag.Int("j", 0, "parallel simulation workers (0 = one per CPU, 1 = serial)")
	jsonPath := flag.String("json", "", "also write the full evaluation as JSON to this `file` (selector must be \"all\")")
	verbose := flag.Bool("v", false, "stream live progress (cycles, simulated ms, MLIPS, current cell) to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile to this `file`")
	memProfile := flag.String("memprofile", "", "write a host heap profile to this `file`")
	httpAddr := flag.String("http", "", "serve /debug/pprof and /metrics on this `address` (e.g. localhost:6060)")
	timeout := flag.Duration("timeout", 0, "abort the evaluation after this wall-clock `duration` (exit 5)")
	steps := flag.Int64("steps", 0, "bound each simulated run to this many steps (0 = default 4e9; exit 4 when exceeded)")
	faultSpec := flag.String("fault", "", "inject a deterministic seeded fault into matching cells, e.g. `site=mem,after=1000,seed=1,only=nreverse` (exit 7, or 8 with -keep-going)")
	keepGoing := flag.Bool("keep-going", false, "report failing workloads as degraded and keep evaluating the rest (exit 8 when any run degraded)")
	engineMode := flag.String("engine", "exact", "accounting engine `mode`: exact (per-cycle) or fast (batched; byte-identical output; -v stays fast, runs arming a per-cycle consumer — -fault matches, the Figure 1 and cache-lab sweeps — run exact, with a startup warning)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON span trace of the evaluation runs to this `file` (view in Perfetto)")
	gridSpec := flag.String("grid", "", "cache-lab grid `spec` for the lab selector, e.g. 'caps=1024,8192;assoc=1,2;repl=lru,plru' (empty = the default grid)")
	flag.Usage = usage
	flag.Parse()
	if *jFlag < 0 {
		fmt.Fprintf(os.Stderr, "psibench: -j must be >= 0 (0 = one worker per CPU, 1 = serial), got %d\n", *jFlag)
		os.Exit(2)
	}
	mode, err := engine.ParseMode(*engineMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psibench: bad -engine: %v\n", err)
		os.Exit(2)
	}
	stopCPU, err := obs.StartCPUProfile(*cpuProfile)
	check(err)
	defer stopCPU()
	if addr, err := obs.ServeDebug(*httpAddr); err != nil {
		check(err)
	} else if addr != "" {
		fmt.Fprintf(os.Stderr, "psibench: debug listener on http://%s/debug/pprof\n", addr)
	}
	o := harness.Options{Workers: *jFlag, MaxSteps: *steps, Fast: mode == engine.ModeFast}
	if *faultSpec != "" {
		p, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psibench: bad -fault: %v\n", err)
			os.Exit(2)
		}
		o.Fault = p
	}
	if *keepGoing {
		o.KeepGoing = true
		o.Degraded = harness.NewDegradedLog()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// SIGINT cancels the evaluation context: in-flight runs stop at the
	// next CheckEvery slice and the process exits with the canceled code.
	ctx, stopSig := signal.NotifyContext(ctx, os.Interrupt)
	defer stopSig()
	o.Ctx = ctx
	if *verbose {
		o.Progress = obs.NewProgressPrinter(os.Stderr).Event
	}
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if *jsonPath != "" && which != "all" {
		fmt.Fprintf(os.Stderr, "psibench: -json covers the full evaluation; use it with the %q selector (got %q)\n", "all", which)
		os.Exit(2)
	}
	if *traceOut != "" {
		o.Spans = telemetry.NewSpanLog()
	}
	// The fast engine is downgraded per cell, never silently: name every
	// per-cycle consumer the selected evaluation arms up front.
	if mode == engine.ModeFast {
		if o.Fault != nil {
			fmt.Fprintln(os.Stderr, "psibench: -engine fast: cells matching the -fault plan run with exact accounting (fault injection needs the per-cycle stream)")
		}
		if which == "all" || which == "fig1" {
			fmt.Fprintln(os.Stderr, "psibench: -engine fast: the Figure 1 cache sweep runs with exact accounting (its PMMS replay taps the per-cycle stream)")
		}
		if which == "all" || which == "lab" {
			fmt.Fprintln(os.Stderr, "psibench: -engine fast: the cache lab runs with exact accounting (its grid sweep rides the per-cycle predicate sink)")
		}
	}
	defer func() { check(obs.WriteMemProfile(*memProfile)) }()
	switch which {
	case "calib":
		calib()
		return
	case "all":
		e, err := harness.EvaluationWith(o)
		check(err)
		fmt.Print(e.Text())
		if *jsonPath != "" {
			b, err := e.JSON()
			check(err)
			check(os.WriteFile(*jsonPath, b, 0o644))
		}
		writeTrace(*traceOut, o.Spans)
		exitDegraded(o)
		return
	case "1", "2", "3", "4", "5", "6", "7", "fig1", "ablate", "lab":
	default:
		fmt.Fprintf(os.Stderr, "psibench: unknown selector %q (want 1..7, fig1, ablate, lab, all or calib)\n", which)
		os.Exit(2)
	}
	if *gridSpec != "" && which != "lab" {
		fmt.Fprintf(os.Stderr, "psibench: -grid shapes the cache lab; use it with the %q selector (got %q)\n", "lab", which)
		os.Exit(2)
	}
	if which == "1" {
		rows, err := harness.Table1With(o)
		check(err)
		fmt.Println(harness.FormatTable1(rows))
	}
	if which == "2" {
		rows, err := harness.Table2With(o)
		check(err)
		fmt.Println(harness.FormatTable2(rows))
	}
	if which == "3" {
		rows, err := harness.Table3With(o)
		check(err)
		fmt.Println(harness.FormatTable3(rows))
	}
	if which == "4" {
		rows, err := harness.Table4With(o)
		check(err)
		fmt.Println(harness.FormatTable4(rows))
	}
	if which == "5" {
		rows, err := harness.Table5With(o)
		check(err)
		fmt.Println(harness.FormatTable5(rows))
	}
	if which == "6" {
		t6, err := harness.Table6With(o)
		check(err)
		fmt.Println(harness.FormatTable6(t6))
	}
	if which == "7" {
		t7, err := harness.Table7With(o)
		check(err)
		fmt.Println(harness.FormatTable7(t7))
	}
	if which == "fig1" {
		f, err := harness.Figure1With(o)
		check(err)
		fmt.Println(harness.FormatFigure1(f))
	}
	if which == "ablate" {
		rows, err := harness.AblationsWith(o)
		check(err)
		fmt.Println(harness.FormatAblations(rows))
	}
	if which == "lab" {
		g, err := pmms.ParseGrid(*gridSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psibench: bad -grid: %v\n", err)
			os.Exit(2)
		}
		l, err := harness.CacheLabFor(o, g, progs.Window1)
		check(err)
		fmt.Println(harness.FormatCacheLab(l))
	}
	if o.Degraded != nil && which != "all" {
		if runs := o.Degraded.Runs(); len(runs) > 0 {
			// Single-section selectors print their degraded entries here
			// (the full-evaluation report carries its own section).
			fmt.Print(harness.FormatDegraded(runs))
		}
	}
	writeTrace(*traceOut, o.Spans)
	exitDegraded(o)
}

// writeTrace dumps the span log as a Chrome trace-event JSON document,
// one row per simulated run. No-op when -trace-out was not given.
func writeTrace(path string, log *telemetry.SpanLog) {
	if path == "" || log == nil {
		return
	}
	f, err := os.Create(path)
	check(err)
	if err := log.WriteJSON(f); err != nil {
		f.Close()
		check(err)
	}
	check(f.Close())
}

// exitDegraded ends a keep-going run whose degraded log is non-empty
// with the distinct degraded exit code, after a one-line stderr summary.
func exitDegraded(o harness.Options) {
	if o.Degraded == nil {
		return
	}
	if runs := o.Degraded.Runs(); len(runs) > 0 {
		fmt.Fprintf(os.Stderr, "psibench: degraded: %d workload(s) failed and were excluded\n", len(runs))
		os.Exit(engine.ExitDegraded)
	}
}

// check reports err on stderr, prefixed with its engine error class, and
// exits with the class's exit code (3 malformed, 4 step-limit,
// 5 deadline, 6 canceled, 7 fault, 1 anything else).
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "psibench: %s: %v\n", engine.ClassName(err), err)
		os.Exit(engine.ExitCode(err))
	}
}

// calib runs Table 1 without its slowest row and prints the DEC/PSI
// ratios under the nanosecond-per-unit scale implied by pinning
// benchmark (1), nreverse, to the paper's 0.70 ratio. Used to fix the
// dec10.NSPerUnit calibration constant.
func calib() {
	type row struct {
		name               string
		psiNS              int64
		decUnits           int64
		paperPSI, paperDEC float64
	}
	var rows []row
	for _, b := range progs.Table1() {
		if b.Name == "harmonizer-3" {
			continue
		}
		r, err := harness.RunPSI(b, false)
		check(err)
		d, err := harness.RunDEC(b)
		check(err)
		rows = append(rows, row{b.Name, r.Machine.TimeNS(), d.Units(), b.PaperPSIMS, b.PaperDECMS})
		r.Release()
	}
	var scale float64
	for _, r := range rows {
		if r.name == "nreverse (30)" {
			scale = 0.70 * float64(r.psiNS) / float64(r.decUnits)
		}
	}
	fmt.Printf("implied NSPerUnit = %.0f\n", scale)
	fmt.Printf("%-18s %9s %9s %7s | %7s\n", "program", "PSI(ms)", "DEC(ms)", "ratio", "paper")
	for _, r := range rows {
		dec := float64(r.decUnits) * scale / 1e6
		psi := float64(r.psiNS) / 1e6
		fmt.Printf("%-18s %9.1f %9.1f %7.2f | %7.2f\n", r.name, psi, dec, dec/psi, r.paperDEC/r.paperPSI)
	}
}
