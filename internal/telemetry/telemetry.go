// Package telemetry is the always-on observability layer of the PSI
// reproduction: instrumentation cheap enough to stay attached while the
// engine runs in its fast (batched) accounting mode.
//
// The exact observability hooks in internal/obs consume every simulated
// cycle (a micro.Sink per record), which forces the engine back onto the
// exact per-cycle path. This package provides the statistical
// counterparts whose cost is independent of the cycle rate:
//
//   - SamplingProfiler: per-predicate cycle attribution from stride
//     samples plus accounting-flush taps, instead of the exact
//     per-cycle PredSink (see core.Config.Sample);
//   - SpanLog: host-time spans of compiles, sessions, Step(budget)
//     slices and harness cells, exported as Chrome trace-event JSON
//     (viewable in Perfetto / chrome://tracing);
//   - Registry: process-wide counters, gauges and histograms with
//     Prometheus-style text exposition (mounted at /metrics next to
//     /debug/pprof, the one metrics surface of the CLIs and psid);
//   - Flight: a fixed-size ring of recent per-session events, dumped
//     into fault reports so a chaos run leaves a post-mortem.
//
// The package is deliberately a leaf: it imports only the standard
// library, so every layer of the simulator (core, obs, harness, CLIs)
// can depend on it without cycles.
package telemetry
