// Package obs is the unified observability layer of the PSI
// reproduction. It turns the raw accounting the machine already keeps —
// the micro-cycle stream, cache statistics, work-file field modes and
// memory-area footprints — into structured, machine-readable artifacts:
//
//   - RunReport: a stable-schema JSON document capturing everything one
//     run produces (the COLLECT idea, lifted from traces to summaries);
//   - Profiler: a micro.Sink that attributes cycles, cache misses and
//     module breakdowns to the predicate executing them (the MAP idea,
//     lifted from field patterns to predicates);
//   - Progress: live heartbeat events for long simulations;
//   - host hooks: pprof helpers and a debug listener (/debug/pprof and
//     /metrics) for watching the Go host while it simulates.
package obs

import (
	"encoding/json"
	"errors"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/micro"
	"repro/internal/telemetry"
	"repro/internal/word"
)

// ReportSchema identifies the RunReport JSON schema. Bump the suffix on
// any incompatible change.
const ReportSchema = "psi-run-report/v1"

// NamedCount is one labelled counter in a report (label order is part of
// the schema, so consumers can rely on stable row positions).
type NamedCount struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// WFModeCounts breaks the work-file access-mode usage down per
// microinstruction field (Table 6's raw counts).
type WFModeCounts struct {
	Src1 []NamedCount `json:"src1"`
	Src2 []NamedCount `json:"src2"`
	Dest []NamedCount `json:"dest"`
}

// AreaCacheStats is the cache behaviour of one memory area kind.
type AreaCacheStats struct {
	Area     string  `json:"area"`
	Accesses int64   `json:"accesses"`
	Hits     int64   `json:"hits"`
	HitRatio float64 `json:"hit_ratio"`
}

// CacheReport summarizes the run's cache behaviour (Tables 3-5 inputs).
type CacheReport struct {
	Config        string           `json:"config"`
	Areas         []AreaCacheStats `json:"areas"`
	Total         AreaCacheStats   `json:"total"`
	StallNS       int64            `json:"stall_ns"`
	Fills         int64            `json:"fills"`
	WriteBacks    int64            `json:"write_backs"`
	WriteThroughs int64            `json:"write_throughs"`
}

// MemoryReport captures the run's memory footprint high-water marks.
type MemoryReport struct {
	HeapHighWaterWords int          `json:"heap_high_water_words"`
	StackHighWater     []NamedCount `json:"stack_high_water_words"`
	PhysicalPages      int          `json:"physical_pages"`
}

// FaultReport records a contained machine fault: where the simulated
// hardware (or the panic-containment boundary) detected it, at which
// machine step, and with what diagnostic. Stack is the Go stack captured
// at recovery — diagnostic only, omitted when empty so deterministic
// comparisons can strip it with one field. Flight, when the session
// carried a flight recorder, dumps the last telemetry events leading up
// to the fault (Step slices, heartbeats, downgrades) — a post-mortem
// keyed by simulated step counts, so it is as deterministic as the
// fault itself.
type FaultReport struct {
	Site   string                  `json:"site"`
	Step   int64                   `json:"step"`
	Error  string                  `json:"error"`
	Stack  string                  `json:"stack,omitempty"`
	Flight []telemetry.FlightEvent `json:"flight,omitempty"`
}

// HostReport captures what the simulation cost the Go host. The fields
// are non-deterministic by nature and therefore live in their own
// section, so the simulated sections stay byte-stable.
type HostReport struct {
	WallNS     int64  `json:"wall_ns"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// RunReport is the structured result of one PSI run: everything the
// machine accounted, assembled from micro.Stats, the cache model, the
// work-file mode counters and the memory areas.
type RunReport struct {
	Schema string `json:"schema"`
	Engine string `json:"engine"`
	// Mode is the effective cycle-accounting mode ("exact" or "fast"):
	// what the machine actually ran, not what was requested — a fast
	// request with a per-cycle consumer armed reports "exact", and
	// ModeDowngradeReason then names the consumers that forced it
	// ("trace", "profile", "fault", joined with "+").
	Mode                string  `json:"mode"`
	ModeDowngradeReason string  `json:"mode_downgrade_reason,omitempty"`
	Termination         string  `json:"termination"`
	Workload            string  `json:"workload,omitempty"`
	MicroCycles         int64   `json:"micro_cycles"`
	SimulatedNS         int64   `json:"simulated_ns"`
	Inferences          int64   `json:"inferences"`
	KLIPS               float64 `json:"klips"`

	ModuleSteps []NamedCount `json:"module_steps"`
	WFModes     WFModeCounts `json:"wf_modes"`
	BranchOps   []NamedCount `json:"branch_ops"`
	BranchData  int64        `json:"branch_data_cycles"`
	CacheOps    []NamedCount `json:"cache_ops"`

	Cache  *CacheReport `json:"cache,omitempty"` // nil when the cache is disabled
	Memory MemoryReport `json:"memory"`
	Fault  *FaultReport `json:"fault,omitempty"` // set when termination is "fault"
	Host   *HostReport  `json:"host,omitempty"`

	// flight is the session's flight recorder, captured at assembly time;
	// SetTermination dumps its events into the fault block when the run
	// ended in a contained fault.
	flight *telemetry.Flight
}

// modeCounts renders one WF field's mode counters (skipping ModeNone:
// the field idles in the remaining cycles).
func modeCounts(c *[micro.NumWFModes]int64) []NamedCount {
	out := make([]NamedCount, 0, micro.NumWFModes-1)
	for m := micro.WFMode(1); m < micro.NumWFModes; m++ {
		out = append(out, NamedCount{Name: m.String(), Count: c[m]})
	}
	return out
}

// NewRunReport assembles the structured report of a finished run.
// host may be nil for fully deterministic output.
func NewRunReport(m *core.Machine, workload string, host *HostReport) *RunReport {
	s := m.Stats()
	r := &RunReport{
		Schema:              ReportSchema,
		Engine:              core.EngineName,
		Mode:                m.AccountingMode(),
		ModeDowngradeReason: m.ModeDowngradeReason(),
		Termination:         engine.ClassName(nil),
		Workload:            workload,
		MicroCycles:         s.Steps,
		SimulatedNS:         m.TimeNS(),
		Inferences:          m.Inferences(),
		Host:                host,
		flight:              m.Flight(),
	}
	if r.SimulatedNS > 0 {
		r.KLIPS = float64(r.Inferences) / (float64(r.SimulatedNS) / 1e9) / 1000
	}
	for mod := micro.Module(0); mod < micro.NumModules; mod++ {
		r.ModuleSteps = append(r.ModuleSteps, NamedCount{Name: mod.String(), Count: s.ModuleSteps[mod]})
	}
	r.WFModes = WFModeCounts{
		Src1: modeCounts(&s.Src1),
		Src2: modeCounts(&s.Src2),
		Dest: modeCounts(&s.Dest),
	}
	for op := micro.BranchOp(0); op < micro.NumBranchOps; op++ {
		r.BranchOps = append(r.BranchOps, NamedCount{Name: op.String(), Count: s.Branch[op]})
	}
	r.BranchData = s.BranchData
	for op := micro.OpRead; op < micro.NumCacheOps; op++ {
		r.CacheOps = append(r.CacheOps, NamedCount{Name: op.String(), Count: s.CacheOps[op]})
	}
	if c := m.Cache(); c != nil {
		cr := &CacheReport{
			Config:        c.Config().String(),
			StallNS:       c.StallNS,
			Fills:         c.Fills,
			WriteBacks:    c.WriteBacks,
			WriteThroughs: c.WriteThroughs,
			Total: AreaCacheStats{
				Area: "total", Accesses: c.Total.Accesses,
				Hits: c.Total.Hits, HitRatio: c.Total.HitRatio(),
			},
		}
		for k := word.AreaID(0); k < 5; k++ {
			a := c.Area[k]
			cr.Areas = append(cr.Areas, AreaCacheStats{
				Area: k.String(), Accesses: a.Accesses, Hits: a.Hits, HitRatio: a.HitRatio(),
			})
		}
		r.Cache = cr
	}
	r.Memory = MemoryReport{
		HeapHighWaterWords: m.HeapHighWater(),
		PhysicalPages:      m.PhysicalPages(),
	}
	for p := 0; p < m.Processes(); p++ {
		for kind := word.AreaGlobal; kind <= word.AreaTrail; kind++ {
			a := word.StackArea(p, kind)
			name := kind.String()
			if m.Processes() > 1 {
				name = "p" + itoa(p) + "." + name
			}
			r.Memory.StackHighWater = append(r.Memory.StackHighWater,
				NamedCount{Name: name, Count: int64(m.AreaHighWater(a))})
		}
	}
	return r
}

// SetTermination records how the run ended, as the engine error class
// name ("ok", "step-limit", "deadline", "canceled", "malformed",
// "fault"). A contained machine fault additionally fills the report's
// fault block with site, step and stack.
func (r *RunReport) SetTermination(err error) {
	r.Termination = engine.ClassName(err)
	var fe *engine.FaultError
	if errors.As(err, &fe) {
		r.Fault = &FaultReport{
			Site:  fe.Site,
			Step:  fe.Step,
			Error: fe.Error(),
			Stack: fe.Stack,
		}
		if r.flight != nil {
			r.Fault.Flight = r.flight.Events()
		}
	}
}

// JSON serializes the report (indented, trailing newline), the exact
// bytes `psi -json` writes.
func (r *RunReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// itoa is a minimal positive-int formatter (avoids strconv for two-digit
// process numbers).
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 && i > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
