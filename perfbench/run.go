package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// setupSamples is how many fresh processes setup_s is measured on.
const setupSamples = 31

// minRequests keeps at least minBeyond requests beyond the p90.
const minRequests = 100

// burstRequests is the least size of each request burst of the traced
// run; on serve-corpus each client also completes its round.
const burstRequests = 40

// readyChild is the process whose set-up time setup_s measures: it sets
// up the system under test, reports "ready" and tears it down again.
func readyChild(workload string) error {
	switch workload {
	case "eval-full":
		if _, err := loadGoldens(); err != nil {
			return err
		}
		fmt.Println("ready")
	case "serve-corpus", "serve-fresh":
		d, err := startDaemon()
		if err != nil {
			return err
		}
		fmt.Println("ready")
		d.stop()
	default:
		return fmt.Errorf("unknown workload %q", workload)
	}
	return nil
}

// measureSetup starts n fresh processes of this program in set-up mode
// and returns the median time from process start until each reported
// its system ready.
func measureSetup(workload string, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--ready", workload)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		took := time.Since(t0).Seconds()
		io.Copy(io.Discard, out)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up process: %w", err)
		}
		if rerr != nil || line != "ready\n" {
			return 0, fmt.Errorf("set-up process did not report ready (%q, %v)", line, rerr)
		}
		ts = append(ts, took)
	}
	return median(ts), nil
}

// streams builds one request stream per load client.
func streams(workload string, seed uint64, clients int) []source {
	out := make([]source, clients)
	for i := range out {
		out[i] = newStream(workload, seed, i)
	}
	return out
}

// serveSession is a started daemon with the workload's references, warmed
// up as the workload prescribes.
func serveSession(workload string, seed uint64) (*daemon, references, error) {
	var refs references
	if workload != "serve-fresh" {
		var err error
		if refs, err = corpusReferences(); err != nil {
			return nil, nil, err
		}
	}
	d, err := startDaemon()
	if err != nil {
		return nil, nil, err
	}
	if workload == "serve-fresh" {
		// Warm the connections and the machine pool on programs the
		// timed clients never send (client indexes past any real one).
		warm := []source{newStream(workload, seed, 1<<20)}
		run := load(d, warm, time.Now(), 4, nil, nil)
		err = run.firstError()
	} else {
		err = warmCorpus(d, refs)
	}
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, refs, nil
}

// runTimed is the untraced run: it measures the end-to-end metrics.
func runTimed(cfg config) (*result, error) {
	setup, err := measureSetup(cfg.workload, setupSamples)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var (
		lat   []float64
		ok    int
		wall  time.Duration
		u0    usage
		first error
	)
	if cfg.workload == "eval-full" {
		g, err := loadGoldens()
		if err != nil {
			return nil, err
		}
		u0 = readUsage()
		start := time.Now()
		for {
			took, err := evaluate(g, nil, 0)
			ms := float64(took.Nanoseconds()) / 1e6
			if err != nil {
				if first == nil {
					first = err
				}
				ms = math.Inf(1)
			} else {
				ok++
			}
			lat = append(lat, ms)
			if time.Since(start)+took > time.Duration(cfg.seconds*float64(time.Second)) {
				break
			}
		}
		wall = time.Since(start)
	} else {
		d, refs, err := serveSession(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		u0 = readUsage()
		run := load(d, streams(cfg.workload, cfg.seed, cfg.clients),
			time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), minRequests, refs, nil)
		st := d.srv.Stats()
		d.stop()
		fmt.Printf("daemon         %d programs resident (capacity %d), %d rejected, %d expired\n",
			st.Programs, d.srv.Config().Programs, st.Rejected, st.Expired)
		lat, wall, first = run.latencies(), run.wall, run.firstError()
		ok = len(lat) - run.failed()
	}
	u1 := readUsage()
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", first)
	}
	res.Attempted, res.Failed = len(lat), len(lat)-ok
	res.Correct = res.Failed == 0
	p50 := median(lat)
	tail, enough := percentile(lat, 0.9)
	tailName := "p90"
	if !enough {
		tail, tailName = maxOf(lat), "max"
	}
	res.set("setup_s", setup, "s")
	res.set("p50_ms", p50, "ms")
	res.set("tail_ms", tail, "ms")
	res.set("ops_per_s", float64(ok)/wall.Seconds(), "1/s")
	res.set("cpu_ms_per_op", (u1.cpuMS-u0.cpuMS)/float64(len(lat)), "ms")
	res.set("peak_rss_mb", u1.peakMB, "MB")

	if cfg.workload == "eval-full" {
		fmt.Printf("eval_s         %10.4f s    (median of %d evaluations)\n", p50/1e3, len(lat))
	} else {
		fmt.Printf("p50_ms         %10.4f ms   (n=%d requests)\n", p50, len(lat))
		if enough {
			fmt.Printf("p90_ms         %10.4f ms   (n=%d requests)\n", tail, len(lat))
		}
		fmt.Printf("rps            %10.4f 1/s  (%d requests in %.2f s)\n", float64(ok)/wall.Seconds(), ok, wall.Seconds())
	}
	fmt.Printf("tail_ms        %10.4f ms   (%s of %d)\n", tail, tailName, len(lat))
	fmt.Printf("setup_s        %10.6f s    (median of %d processes)\n", setup, setupSamples)
	fmt.Printf("cpu_ms_per_op  %10.4f ms   (n=%d)\n", res.Metrics["cpu_ms_per_op"].Value, len(lat))
	fmt.Printf("peak_rss_mb    %10.2f MB\n", u1.peakMB)
	fmt.Printf("ops %d failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// runTraced is the traced run. It probes every layer on fixed inputs,
// runs an untraced and a traced evaluation, and sends an untraced
// and a traced burst of the workload's requests (the corpus mix on
// eval-full), so every workload reports every per-layer metric.
func runTraced(cfg config) (*result, error) {
	tr := newTracer()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	counts := map[string]int64{}

	parseNS, kl0NS, err := compileProbe(tr)
	if err != nil {
		return nil, err
	}
	res.set("parse.ns_per_clause", parseNS, "ns")
	res.set("kl0.ns_per_clause", kl0NS, "ns")

	// One pass per machine mode. The fast and exact accountings of the
	// same runs must agree exactly on every count.
	passes := map[string]*corePass{}
	for _, m := range coreModes {
		p, err := coreProbe(tr, m)
		if err != nil {
			return nil, fmt.Errorf("core probe (%s): %w", m.name, err)
		}
		passes[m.name] = p
	}
	ref, exactPass := passes["fast"], passes["exact"]
	if ref.cycles != exactPass.cycles || ref.inferences != exactPass.inferences ||
		ref.accesses != exactPass.accesses || ref.hits != exactPass.hits {
		return nil, fmt.Errorf("core probe counts differ between fast and exact accounting: %+v vs %+v", *ref, *exactPass)
	}
	perCycle := func(m string) float64 { return float64(passes[m].ns) / float64(passes[m].cycles) }
	fast, exact, nocache := perCycle("fast"), perCycle("exact"), perCycle("nocache")
	res.set("core.fast.ns_per_cycle", fast, "ns")
	res.set("core.exact.ns_per_cycle", exact, "ns")
	res.set("core.nocache.ns_per_cycle", nocache, "ns")
	res.set("micro.accounting_ns_per_cycle", exact-fast, "ns")
	res.set("cache.ns_per_cycle", fast-nocache, "ns")
	var opens []float64
	for _, p := range passes {
		opens = append(opens, p.openNS...)
	}
	res.set("core.open_us", median(opens)/1e3, "us")
	res.set("obs.report_us", median(exactPass.reportNS)/1e3, "us")
	counts["core.cycles"] = ref.cycles
	counts["core.inferences"] = ref.inferences
	counts["cache.accesses"] = ref.accesses
	res.set("cache.hit_ratio", float64(ref.hits)/float64(ref.accesses), "ratio")

	var perRec, perLane []float64
	for i := 0; i < 3; i++ {
		r, l, err := pmmsProbe(tr)
		if err != nil {
			return nil, fmt.Errorf("pmms probe: %w", err)
		}
		perRec, perLane = append(perRec, r), append(perLane, l)
	}
	res.set("pmms.ns_per_record", median(perRec), "ns")
	res.set("pmms.grid_ns_per_lane_record", median(perLane), "ns")

	var perCall []float64
	for i := 0; i < 2; i++ {
		ns, calls, err := decProbe(tr)
		if err != nil {
			return nil, fmt.Errorf("dec10 probe: %w", err)
		}
		if i > 0 && calls != counts["dec10.calls"] {
			return nil, fmt.Errorf("dec10 calls differ between passes: %d vs %d", calls, counts["dec10.calls"])
		}
		counts["dec10.calls"] = calls
		perCall = append(perCall, float64(ns)/float64(calls))
	}
	res.set("dec10.ns_per_call", median(perCall), "ns")

	if err := tracedEvaluation(tr, res, counts); err != nil {
		return nil, err
	}
	if err := tracedBursts(cfg, tr, res); err != nil {
		return nil, err
	}
	for k, v := range counts {
		res.set(k, float64(v), "count")
	}
	if err := checkCounts(cfg.outDir, counts); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}

	spans := tr.Snapshot()
	printLayerTable(os.Stdout, layerTable(spans))
	path, err := writeSpans(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed), spans)
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("ops %d failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

// tracedEvaluation runs the evaluation untraced and then traced, and
// derives the harness metrics from the traced one's spans.
func tracedEvaluation(tr *Tracer, res *result, counts map[string]int64) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	// An untraced evaluation, then the traced one. The layer probes
	// before them have already compiled the corpus and filled the
	// machine pool.
	const req = -1 // the evaluation's spans share one id outside the request range
	var times [2]time.Duration
	for i, t := range []*Tracer{nil, tr} {
		var err error
		times[i], err = evaluate(g, t, req)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: evaluation:", err)
		}
	}
	plain, traced := times[0], times[1]
	res.set("trace.eval_overhead_s", (traced - plain).Seconds(), "s")

	// harness.self_s sums the section time no cell or simulation span
	// covers, over the sections whose runs Options.Spans records (the
	// ablation runs record none, so ablate is timed but not split).
	spans := tr.Snapshot()
	self := selfTimes(spans)
	hasKids := map[int]bool{}
	for _, s := range spans {
		hasKids[s.Parent] = true
	}
	var selfNS, sims int64
	for _, s := range spans {
		if s.Req != req {
			continue
		}
		switch {
		case s.Name == "core.step":
			sims++
		case isSection(s.Name):
			res.set(s.Name+"_s", float64(s.End-s.Start)/1e9, "s")
			if hasKids[s.ID] {
				selfNS += self[s.ID]
			}
		}
	}
	res.set("harness.self_s", float64(selfNS)/1e9, "s")
	counts["harness.sim_runs"] = sims
	return nil
}

// isSection reports whether a span times one evaluation section.
func isSection(name string) bool {
	for _, s := range sections {
		if name == "harness."+s.name {
			return true
		}
	}
	return false
}

// tracedBursts sends an untraced and then a traced burst of requests,
// the workload's own on the serve workloads and the corpus mix on
// eval-full, and derives the serving and client metrics.
func tracedBursts(cfg config, tr *Tracer, res *result) error {
	kind := cfg.workload
	if kind == "eval-full" {
		kind = "serve-corpus"
	}
	d, refs, err := serveSession(kind, cfg.seed)
	if err != nil {
		return err
	}
	defer d.stop()
	ss := streams(kind, cfg.seed, cfg.clients)
	plain := load(d, ss, time.Now(), burstRequests, refs, nil)
	before := len(tr.Snapshot())
	traced := load(d, ss, time.Now(), burstRequests, refs, tr)
	for _, run := range []*loadRun{plain, traced} {
		res.Attempted += len(run.ops)
		res.Failed += run.failed()
		if err := run.firstError(); err != nil {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench: failed request:", err)
		}
	}
	res.set("trace.p50_overhead_ms", median(traced.latencies())-median(plain.latencies()), "ms")

	// Serving overhead per traced request: the client round trip minus
	// the in-process replica of the same job.
	spans := tr.Snapshot()[before:]
	rtt, rep := map[int64]int64{}, map[int64]int64{}
	for _, s := range spans {
		switch s.Name {
		case "client.solve":
			rtt[s.Req] = s.End - s.Start
		case "replica":
			rep[s.Req] = s.End - s.Start
		}
	}
	var over []float64
	for id, r := range rep {
		over = append(over, float64(rtt[id]-r)/1e6)
	}
	res.set("serve.overhead_ms", median(over), "ms")
	st := d.srv.Stats()
	res.set("serve.rejected", float64(st.Rejected), "count")
	res.set("serve.expired", float64(st.Expired), "count")
	res.set("serve.programs", float64(st.Programs), "count")
	var cs = plain.stats
	cs.Add(traced.stats)
	jobs := len(plain.ops) + len(traced.ops)
	res.set("client.attempts_per_job", float64(cs.Attempts)/float64(jobs), "ratio")
	res.set("client.retries", float64(cs.Retries), "count")
	return nil
}

// checkCounts compares the deterministic counts with those an earlier
// traced run of the same binary recorded, and records them on the first
// run. The counts come from fixed inputs, so any difference is a
// nondeterminism bug.
func checkCounts(dir string, counts map[string]int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(b)
	path := filepath.Join(dir, "counts-"+hex.EncodeToString(sum[:8])+".json")
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		js, err := json.Marshal(counts)
		if err != nil {
			return err
		}
		return os.WriteFile(path, js, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]int64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for k, v := range counts {
		if want[k] != v {
			return fmt.Errorf("deterministic count %s = %d, an earlier run of this build counted %d", k, v, want[k])
		}
	}
	return nil
}
