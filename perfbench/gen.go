package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/progs"
	"repro/internal/serve"
)

// Seeded input generation. Every request the load clients send is a
// pure function of (workload seed, client index, request index), so the
// same seed gives byte-identical request bodies on every run and host.
// The daemon under test only ever sees the generated bodies.

// Request is one generated job: the wire body plus what the benchmark
// expects back.
type Request struct {
	Spec  serve.JobSpec
	Body  []byte
	Kind  string // corpus, malformed, step-limit, fault or fresh
	Class string // expected termination class
	// Solutions is the solution count a fresh job must stream.
	Solutions int
}

// splitmix64 is a tiny PRNG step (the one serve's load mix uses): good
// dispersion, no global state, identical on every platform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// clientSeed derives the stream seed of one load client.
func clientSeed(seed uint64, client int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(client)+1))
}

func newRequest(spec serve.JobSpec, kind, class string, solutions int) Request {
	body, err := json.Marshal(&spec)
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	return Request{Spec: spec, Body: body, Kind: kind, Class: class, Solutions: solutions}
}

// malformedJobs are a runtime type error and a parse error.
var malformedJobs = []serve.JobSpec{
	{Program: "go :- X is 1 // 0, X = X.\n", Workload: "mix-malformed-runtime"},
	{Program: "go :- foo(.\n", Workload: "mix-malformed-parse"},
}

// errorJobs is how many error jobs a round of the corpus mix holds:
// both malformed jobs, one step-limit and one fault job.
const errorJobs = 4

// corpusMix generates a client's serve-corpus requests: the job kinds
// of serve.DefaultMix().Jobs — Table-1 programs plus malformed,
// step-limit and fault jobs — drawn in rounds instead of independently.
// A round is every Table-1 program once plus the error jobs, in a
// shuffled order. harmonizer-3 alone costs about as much as the other
// 18 programs together, so with independent draws, or a run cut
// mid-round, the work in a 30-second run would move by a fifth between
// seeds; whole rounds keep it fixed, and the seed changes only the
// order and the error jobs' parameters. A round holds an odd number of
// jobs (23), so the run's median falls on one job's latency rather
// than on the gap between two.
type corpusMix struct {
	state  uint64
	corpus []progs.Benchmark
	round  []int // corpus indexes; -1-i is error job i
}

func newCorpusMix(seed uint64) *corpusMix {
	return &corpusMix{state: seed, corpus: progs.Table1()}
}

// rand returns a PRNG draw in [0, n).
func (m *corpusMix) rand(n int) int {
	m.state = splitmix64(m.state)
	return int(m.state % uint64(n))
}

// RoundDone reports whether the requests handed out so far form whole
// rounds.
func (m *corpusMix) RoundDone() bool { return len(m.round) == 0 }

// Next returns the next request of the mix.
func (m *corpusMix) Next() Request {
	if len(m.round) == 0 {
		for i := range m.corpus {
			m.round = append(m.round, i)
		}
		for i := 0; i < errorJobs; i++ {
			m.round = append(m.round, -1-i)
		}
		for i := len(m.round) - 1; i > 0; i-- { // Fisher-Yates
			j := m.rand(i + 1)
			m.round[i], m.round[j] = m.round[j], m.round[i]
		}
	}
	pick := m.round[0]
	m.round = m.round[1:]
	if pick >= 0 {
		b := m.corpus[pick]
		return newRequest(serve.JobSpec{Program: b.Source, Query: b.Query, Workload: b.Name}, "corpus", "ok", 0)
	}
	switch i := -1 - pick; i {
	case 0, 1:
		return newRequest(malformedJobs[i], "malformed", "malformed", 0)
	case 2:
		return newRequest(serve.JobSpec{
			Program:  "loop. loop :- loop.\ngo :- loop, fail.\n",
			Workload: "mix-step-limit",
			Steps:    int64(10_000 + m.rand(10_000)),
		}, "step-limit", "step-limit", 0)
	default:
		b := m.corpus[0] // nreverse: small, and long enough for every fault window
		return newRequest(serve.JobSpec{
			Program:  b.Source,
			Query:    b.Query,
			Workload: "mix-fault-" + b.Name,
			Fault:    fmt.Sprintf("site=mem,after=%d,seed=%d", 2_000+m.rand(50_000), 1+m.rand(64)),
		}, "fault", "fault", 0)
	}
}

// freshProgram generates one never-seen program for serve-fresh: two
// fact bases joined by the query. p/2 mixes first-argument-indexable
// heads (atom keys) with non-indexable ones (a variable first
// argument); q/2 is keyed by integers, again with some variable heads.
// The query enumerates every solution of p(K, V), q(V, W) for one key
// K, and the generator counts those solutions itself.
func freshProgram(seed uint64, client, i int) Request {
	st := splitmix64(seed ^ splitmix64(uint64(client)<<32|uint64(i)))
	next := func(n uint64) uint64 {
		st = splitmix64(st)
		return st % n
	}
	const keys, vals = 8, 12
	np := 20 + int(next(181)) // p/2 clauses: 20..200
	nq := 10 + int(next(141)) // q/2 clauses: 10..150
	var src strings.Builder
	fmt.Fprintf(&src, "id(s%x, %d, %d).\n", seed, client, i)
	type fact struct {
		key int // -1 = variable first argument
		val int
	}
	ps := make([]fact, np)
	for j := range ps {
		ps[j] = fact{key: int(next(keys)), val: int(next(vals))}
		if next(5) == 0 {
			ps[j].key = -1
		}
		if ps[j].key < 0 {
			fmt.Fprintf(&src, "p(_, %d).\n", ps[j].val)
		} else {
			fmt.Fprintf(&src, "p(k%d, %d).\n", ps[j].key, ps[j].val)
		}
	}
	qs := make([]fact, nq)
	for j := range qs {
		qs[j] = fact{key: int(next(vals)), val: int(next(1000))}
		if next(6) == 0 {
			qs[j].key = -1
		}
		if qs[j].key < 0 {
			fmt.Fprintf(&src, "q(_, w%d).\n", qs[j].val)
		} else {
			fmt.Fprintf(&src, "q(%d, w%d).\n", qs[j].key, qs[j].val)
		}
	}
	k := int(next(keys))
	n := 0
	for _, p := range ps {
		if p.key != -1 && p.key != k {
			continue
		}
		for _, q := range qs {
			if q.key == -1 || q.key == p.val {
				n++
			}
		}
	}
	return newRequest(serve.JobSpec{
		Program:  src.String(),
		Query:    fmt.Sprintf("p(k%d, V), q(V, W)", k),
		Workload: fmt.Sprintf("fresh-%d-%d", client, i),
		All:      true,
		Stream:   true,
	}, "fresh", "ok", n)
}

// freshStream generates a client's serve-fresh requests by index.
type freshStream struct {
	seed   uint64
	client int
	next   int
}

// RoundDone is always true: every fresh request is a round of its own.
func (s *freshStream) RoundDone() bool { return true }

// Next returns the client's next never-seen program.
func (s *freshStream) Next() Request {
	s.next++
	return freshProgram(s.seed, s.client, s.next-1)
}

// newStream returns load client number client's request source for the
// workload: its requests are a pure function of (seed, client, index).
func newStream(workload string, seed uint64, client int) source {
	cs := clientSeed(seed, client)
	if workload == "serve-fresh" {
		return &freshStream{seed: cs, client: client}
	}
	return newCorpusMix(cs)
}
