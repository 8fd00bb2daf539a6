package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	psi "repro"
	"repro/internal/client"
	"repro/internal/progs"
	"repro/internal/serve"
)

// The serve workloads: an in-process psid with its default config,
// driven by a closed loop of load clients, each waiting for its reply
// before sending the next request.

// daemon is one running in-process psid.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon starts psid on a loopback port and returns once /readyz
// answers 200.
func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{}), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("psid not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for its serve loop to end.
func (d *daemon) stop() {
	d.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.srv.HardCancel()
		d.hs.Close()
	}
	<-d.done
}

// httpClient keeps one idle connection per load client.
func httpClient(clients int) *http.Client {
	return &http.Client{
		Timeout:   5 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
	}
}

// references holds the in-process report of every corpus program: the
// bytes a 200 response to the same spec must equal.
type references map[string][]byte

// corpusReferences runs each Table-1 program the way `psi -json` does —
// fresh machine, first solution, cancelable context — and renders its
// report without the host section.
func corpusReferences() (references, error) {
	corpus := progs.Table1()
	out := make([][]byte, len(corpus))
	errs := make([]error, len(corpus))
	parallel(len(corpus), func(i int) { out[i], errs[i] = reference(corpus[i]) })
	refs := references{}
	for i, b := range corpus {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, errs[i])
		}
		refs[b.Name] = out[i]
	}
	return refs, nil
}

// reference renders one program's in-process report.
func reference(b progs.Benchmark) ([]byte, error) {
	m, err := psi.LoadProgram(b.Source, psi.Options{})
	if err != nil {
		return nil, err
	}
	sols, err := m.Solve(b.Query)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, runErr := psi.NextCtx(ctx, sols)
	rep := m.RunReport(b.Name, nil)
	rep.SetTermination(runErr)
	return rep.JSON()
}

// verify checks one served response against the request's expectation.
func verify(r Request, res *client.Result, refs references) error {
	if res == nil {
		return errors.New("not served")
	}
	switch r.Kind {
	default:
		if res.Class != r.Class {
			return fmt.Errorf("%s: class %q (status %d), want %q", r.Spec.Workload, res.Class, res.Status, r.Class)
		}
	case "corpus":
		if res.Status != http.StatusOK || !bytes.Equal(res.Body, refs[r.Spec.Workload]) {
			return fmt.Errorf("%s: report differs from the in-process reference", r.Spec.Workload)
		}
	case "fresh":
		n, err := streamedSolutions(res.Body)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Spec.Workload, err)
		}
		if res.Status != http.StatusOK || n != r.Solutions {
			return fmt.Errorf("%s: %d solutions (status %d), want %d", r.Spec.Workload, n, res.Status, r.Solutions)
		}
	}
	return nil
}

// streamedSolutions counts the solution events of an NDJSON stream and
// checks that it ends in a report of a run that terminated normally.
func streamedSolutions(body []byte) (int, error) {
	n := 0
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event  string `json:"event"`
			Report *struct {
				Termination string `json:"termination"`
			} `json:"report"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return n, fmt.Errorf("bad stream line: %w", err)
		}
		switch ev.Event {
		case "solution":
			n++
		case "error":
			return n, errors.New("stream carries an error event")
		case "report":
			if ev.Report == nil || ev.Report.Termination != "ok" {
				return n, errors.New("stream report missing or not ok")
			}
		}
		last = ev.Event
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if last != "report" {
		return n, errors.New("stream does not end in a report")
	}
	return n, nil
}

// opResult is one finished request.
type opResult struct {
	ms  float64 // send to last response byte; +Inf when the op failed
	err error
}

// loadRun is the outcome of one closed-loop run.
type loadRun struct {
	ops   []opResult
	wall  time.Duration
	stats client.Stats
}

// latencies returns the per-request latencies in ms, +Inf for failures.
func (l *loadRun) latencies() []float64 {
	out := make([]float64, len(l.ops))
	for i, o := range l.ops {
		out[i] = o.ms
	}
	return out
}

// failed counts the failed requests.
func (l *loadRun) failed() int {
	n := 0
	for _, o := range l.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// firstError returns the first failure, for diagnostics.
func (l *loadRun) firstError() error {
	for _, o := range l.ops {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// source hands one load client its requests in order. A client stops
// only where RoundDone reports a whole number of rounds sent.
type source interface {
	Next() Request
	RoundDone() bool
}

// load drives the daemon with one closed-loop client per source. Each
// client sends its next request only after the previous reply has been
// read to the last byte. Clients stop once the deadline has passed, at
// least minOps requests were started and their source is at the end of
// a round. With a tracer, every request
// gets a root span holding the client round trip and, after the reply,
// an in-process replica of the same job (see replicate).
func load(d *daemon, srcs []source, deadline time.Time, minOps int, refs references, tr *Tracer) *loadRun {
	hc := httpClient(len(srcs))
	defer hc.CloseIdleConnections()
	var (
		mu      sync.Mutex
		run     loadRun
		started atomic.Int64
		wg      sync.WaitGroup
	)
	begin := time.Now()
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src source) {
			defer wg.Done()
			cl := client.New(d.base, client.Options{HTTP: hc, Seed: uint64(i) + 1})
			for {
				if time.Now().After(deadline) && started.Load() >= int64(minOps) && src.RoundDone() {
					break
				}
				id := started.Add(1)
				r := src.Next()
				root := tr.Start("op", 0, id)
				sp := tr.Start("client.solve", root, id)
				t0 := time.Now()
				res, err := cl.Solve(context.Background(), r.Body)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.End(sp)
				if err == nil {
					err = verify(r, res, refs)
				}
				if err == nil && tr != nil && r.Class == "ok" {
					err = replicate(tr, root, id, r)
				}
				tr.End(root)
				if err != nil {
					ms = math.Inf(1)
				}
				mu.Lock()
				run.ops = append(run.ops, opResult{ms: ms, err: err})
				mu.Unlock()
			}
			cs := cl.Stats()
			mu.Lock()
			run.stats.Add(cs)
			mu.Unlock()
		}(i, src)
	}
	wg.Wait()
	run.wall = time.Since(begin)
	return &run
}

// warmCorpus sends every Table-1 program once, so the timed run sees
// the steady state of a long-running daemon that has compiled each
// program already. The replies are checked like timed ones.
func warmCorpus(d *daemon, refs references) error {
	hc := httpClient(nproc())
	defer hc.CloseIdleConnections()
	cl := client.New(d.base, client.Options{HTTP: hc})
	corpus := progs.Table1()
	errs := make([]error, len(corpus))
	parallel(len(corpus), func(i int) {
		b := corpus[i]
		r := newRequest(serve.JobSpec{Program: b.Source, Query: b.Query, Workload: b.Name}, "corpus", "ok", 0)
		res, err := cl.Solve(context.Background(), r.Body)
		if err == nil {
			err = verify(r, res, refs)
		}
		errs[i] = err
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// parallel calls fn(0..n-1) on nproc goroutines and waits for them.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
