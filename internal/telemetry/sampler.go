package telemetry

// DefaultSampleStride is the sampling profiler's default stride in
// simulated cycles. A prime stride avoids locking onto the periodic
// predicate-switch patterns of loopy workloads (the same aliasing
// argument hardware profilers make for prime sampling intervals); 509
// cycles keeps the boundary work (one predicate lookup per sample)
// far below 1% of the fast path's per-cycle cost.
const DefaultSampleStride = 509

// ShareTolerance is the stated accuracy bound of the sampling profiler:
// on the evaluation workloads, every predicate's sampled cycle share is
// within this absolute distance of the exact profiler's share for the
// same run. The differential suite (TestSamplingDifferentialTable1)
// enforces it; DESIGN.md "Telemetry" derives it.
const ShareTolerance = 0.05

// SamplingProfiler attributes simulated cycles to predicates
// statistically. The machine calls Sample at a fixed cycle stride (and
// once more at every accounting flush), attributing all cycles since
// the previous sample to the predicate the code pointer is executing
// in. Totals therefore always sum to the machine's exact Steps count at
// observation boundaries; only the per-predicate split is statistical.
//
// It implements micro.SampleSink. Not safe for concurrent use — like
// the machine it instruments, one profiler belongs to one session.
type SamplingProfiler struct {
	stride  int64
	samples int64
	total   int64
	counts  []int64 // index = predicate id + 1 (0 = no predicate)
}

// NewSamplingProfiler returns a profiler sampling every stride cycles
// (stride <= 0 selects DefaultSampleStride). Pass it as
// core.Config.Sample; unlike the exact profiler it does not force the
// exact accounting path.
func NewSamplingProfiler(stride int64) *SamplingProfiler {
	if stride <= 0 {
		stride = DefaultSampleStride
	}
	return &SamplingProfiler{stride: stride}
}

// Sample implements micro.SampleSink: cycles executed since the
// previous sample are charged to predicate pred (-1 = query glue and
// runtime stubs).
func (p *SamplingProfiler) Sample(pred int, cycles int64) {
	i := pred + 1
	if i < 0 {
		i = 0
	}
	for i >= len(p.counts) {
		p.counts = append(p.counts, 0)
	}
	p.counts[i] += cycles
	p.total += cycles
	p.samples++
}

// Stride reports the configured sampling stride in cycles.
func (p *SamplingProfiler) Stride() int64 { return p.stride }

// Samples reports how many samples were taken.
func (p *SamplingProfiler) Samples() int64 { return p.samples }

// Total reports the attributed cycle total. At every observation
// boundary (Solutions.Step returning) it equals the machine's exact
// Stats().Steps: the flush tap attributes the tail.
func (p *SamplingProfiler) Total() int64 { return p.total }

// Each visits every predicate with a nonzero attributed count, in
// predicate-id order (-1 first).
func (p *SamplingProfiler) Each(fn func(pred int, cycles int64)) {
	for i, n := range p.counts {
		if n != 0 {
			fn(i-1, n)
		}
	}
}

// Reset clears the collected attribution so the profiler can be reused
// for another run.
func (p *SamplingProfiler) Reset() {
	p.samples = 0
	p.total = 0
	for i := range p.counts {
		p.counts[i] = 0
	}
}
