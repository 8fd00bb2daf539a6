// Command perfbench is the repository's benchmark: one seeded run of
// one workload against the library and an in-process psid, with every
// output checked for correctness. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload eval-full|serve-corpus|serve-fresh --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics for --seconds; --trace 1 is
// the separate traced run that gives the per-layer metrics. Its work is
// fixed rather than timed, so its counts repeat exactly. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// workloads names the benchmark's workloads.
var workloads = []string{"eval-full", "serve-corpus", "serve-fresh"}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric. A non-finite value (every operation failed)
// cannot be encoded as JSON and is reported as -1; such a run is never
// correct.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = -1
		r.Correct = false
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func nproc() int { return runtime.NumCPU() }

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	clients  int
	outDir   string
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = the traced run (per-layer metrics)")
	clients := flag.Int("clients", nproc(), "closed-loop load clients (at most nproc)")
	ready := flag.String("ready", "", "internal: set up the workload, print \"ready\" and exit")
	flag.Parse()

	if *ready != "" {
		if err := readyChild(*ready); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		fail("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	case *clients < 1 || *clients > nproc():
		fail("--clients %d: the load generator runs 1..nproc (%d) clients", *clients, nproc())
	case *seconds <= 0:
		fail("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		fail("--trace must be 0 or 1")
	}
	out := os.Getenv("CARGO_TARGET_DIR")
	if out == "" {
		out = ".bench_build"
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		clients: *clients, outDir: filepath.Join(out, "perfbench"),
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, *trace)
	fmt.Println(hostLine())
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(cfg)
	} else {
		res, err = runTimed(cfg)
	}
	if err != nil {
		fail("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// hostLine describes the host every result was measured on.
func hostLine() string {
	return fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s cpu=%q",
		nproc(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
}

// cpuModel reads the CPU model name (Linux; the architecture elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// usage is the process's CPU time and peak resident memory so far.
type usage struct {
	cpuMS  float64
	peakMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return usage{cpuMS: tv(ru.Utime) + tv(ru.Stime), peakMB: float64(ru.Maxrss) / 1024}
}
