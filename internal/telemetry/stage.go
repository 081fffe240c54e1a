package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Per-stage pipeline timing: the always-on layer under the span tracer.
// Every hot pipeline stage (CDC chunking, SHA fingerprinting, index lookup,
// container sealing, backend I/O on ingest; container read, chunk decode,
// output copy on restore) owns a StageClock and charges the wall time it
// actually spends — two time.Now calls and two atomic adds per observation,
// cheap enough to leave on under -loadgen. The cumulative nanosecond
// counters answer the question flat throughput numbers cannot: which stage
// serializes a multi-stream run. Because they are wall-clock sums across
// all goroutines, a stage whose share does not shrink as streams are added
// is the serial bottleneck (EXPERIMENTS.md "Retired harnesses": the PR 6 row).
//
// Counters surface as pipeline_stage_ns_total{stage=...} and
// pipeline_stage_ops_total{stage=...} on /metrics, and as a stage→ns map on
// dedupd's /v1/stats.

// StageClock accumulates the wall time spent in one named pipeline stage.
type StageClock struct {
	name string
	ns   *Counter
	ops  *Counter
}

var (
	stageMu  sync.Mutex
	stageSet = make(map[string]*StageClock)
)

// Stage returns (creating if needed) the named stage clock on the Default
// registry. Stage names are a small fixed vocabulary (see the package
// comment); the same name always returns the same clock.
func Stage(name string) *StageClock {
	stageMu.Lock()
	defer stageMu.Unlock()
	if s, ok := stageSet[name]; ok {
		return s
	}
	s := &StageClock{
		name: name,
		ns: NewCounter(Name("pipeline_stage_ns_total", "stage", name),
			"cumulative wall-clock nanoseconds spent in each pipeline stage, across all streams"),
		ops: NewCounter(Name("pipeline_stage_ops_total", "stage", name),
			"observations per pipeline stage"),
	}
	stageSet[name] = s
	return s
}

// Observe charges the wall time since start to the stage.
func (s *StageClock) Observe(start time.Time) {
	s.ns.Add(int64(time.Since(start)))
	s.ops.Inc()
}

// AddNS charges d nanoseconds measured by the caller (used where one timer
// brackets a batch and hands out per-stage slices).
func (s *StageClock) AddNS(d int64) {
	if d > 0 {
		s.ns.Add(d)
	}
	s.ops.Inc()
}

// TotalNS returns the stage's cumulative nanoseconds.
func (s *StageClock) TotalNS() int64 { return s.ns.Value() }

// StageTotals snapshots every registered stage's cumulative nanoseconds,
// keyed by stage name. This is the payload behind /v1/stats' "stages" map
// and the loadgen client's per-stage breakdown.
func StageTotals() map[string]int64 {
	stageMu.Lock()
	defer stageMu.Unlock()
	out := make(map[string]int64, len(stageSet))
	for name, s := range stageSet {
		out[name] = s.ns.Value()
	}
	return out
}

// StageNames returns the registered stage names, sorted.
func StageNames() []string {
	stageMu.Lock()
	defer stageMu.Unlock()
	out := make([]string, 0, len(stageSet))
	for name := range stageSet {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
