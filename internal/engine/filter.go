package engine

import (
	"repro/internal/chunk"
	"repro/internal/telemetry"
)

// Telemetry: the engine_filter_* surface on /metrics.
var (
	telFilterInline = telemetry.NewCounter(
		telemetry.Name("engine_filter_streams_total", "verdict", "inline"),
		"inline-filter stream verdicts: inline (duplicates cluster, dedup in line) or spill (write through, re-dedup out of line)")
	telFilterSpill = telemetry.NewCounter(
		telemetry.Name("engine_filter_streams_total", "verdict", "spill"), "")
	telFilterSpilledBytes = telemetry.NewCounter("engine_filter_spilled_bytes_total",
		"duplicate bytes written through by spilled streams, pending out-of-line re-dedup")
	telFilterSpilledChunks = telemetry.NewCounter("engine_filter_spilled_chunks_total",
		"duplicate chunks written through by spilled streams")
)

// FilterConfig parameterizes the HPDedup-style prioritized inline filter
// (arXiv 1702.08153). Primary-storage streams have mixed duplicate locality:
// some streams' duplicates cluster in recent containers (inline dedup
// resolves them from the RAM locality caches almost for free), others
// scatter across cold history (every duplicate costs a charged index page
// read and a container-metadata prefetch that never amortizes). The filter
// watches each stream through a probation prefix and demotes poorly
// clustered streams to spill mode: their probable duplicates are written
// through at sequential-write speed and reclaimed later by the maintenance
// pass's out-of-line re-dedup (maintenance.Pass.RunEpoch).
type FilterConfig struct {
	// Enabled turns the filter on. Off, every stream dedups inline.
	Enabled bool
	// Probation is how many chunks of a stream are observed (deduping
	// inline, at full cost) before the verdict. Default 256.
	Probation int
	// MinDupFraction: streams whose observed duplicate share is below this
	// spill — inline lookups cannot pay for themselves. Default 0.05.
	MinDupFraction float64
	// MinClusterScore: the duplicate-locality bar. A duplicate scores as
	// clustered when it resolves to a recently written container (within
	// RecencyContainers of the write head) — the region the RAM locality
	// caches cover; streams whose clustered share is below this spill.
	// Default 0.5.
	MinClusterScore float64
	// RecencyContainers is the width, in containers behind the current
	// write head, of the region duplicates may resolve to and still count
	// as clustered. Default 4 (16 MiB at the default container size).
	RecencyContainers int
}

func (c FilterConfig) withDefaults() FilterConfig {
	if c.Probation <= 0 {
		c.Probation = 256
	}
	if c.MinDupFraction == 0 {
		c.MinDupFraction = 0.05
	}
	if c.MinClusterScore == 0 {
		c.MinClusterScore = 0.5
	}
	if c.RecencyContainers <= 0 {
		c.RecencyContainers = 4
	}
	return c
}

// Filter is the per-stream filter state. One Filter observes exactly one
// backup stream; the engines drive it from their (serial-per-stream)
// segment-processing path, so no locking is needed. A nil *Filter is the
// disabled filter: all methods are safe and report inline.
type Filter struct {
	cfg     FilterConfig
	chunks  int64
	dups    int64
	recent  int64
	decided bool
	spill   bool
}

// NewFilter builds the per-stream state, or nil when cfg is disabled.
func NewFilter(cfg FilterConfig) *Filter {
	if !cfg.Enabled {
		return nil
	}
	return &Filter{cfg: cfg.withDefaults()}
}

// Observe feeds one probation-phase chunk resolution. loc is meaningful only
// for duplicates; head is the container store's current allocated-ID head,
// so head-loc.Container is how far behind the write frontier the duplicate's
// stored copy lives.
func (f *Filter) Observe(dup bool, loc chunk.Location, head uint32) {
	if f == nil || f.decided {
		return
	}
	f.chunks++
	if dup {
		f.dups++
		if head <= loc.Container+uint32(f.cfg.RecencyContainers) {
			f.recent++
		}
	}
	if f.chunks >= int64(f.cfg.Probation) {
		f.decide()
	}
}

// decide closes probation and fixes the stream's verdict.
func (f *Filter) decide() {
	f.decided = true
	dupFrac := float64(f.dups) / float64(f.chunks)
	clusterFrac := 1.0
	if f.dups > 0 {
		clusterFrac = float64(f.recent) / float64(f.dups)
	}
	// A stream earns inline dedup only when duplicates are worth finding
	// AND finding them exhibits the locality the caches feed on.
	f.spill = dupFrac < f.cfg.MinDupFraction || clusterFrac < f.cfg.MinClusterScore
	if f.spill {
		telFilterSpill.Inc()
	} else {
		telFilterInline.Inc()
	}
}

// Spilling reports whether the stream has been demoted to write-through.
func (f *Filter) Spilling() bool { return f != nil && f.decided && f.spill }

// AccountSpill records one duplicate chunk of n bytes written through by a
// spilled stream.
func AccountSpill(n int64) {
	telFilterSpilledBytes.Add(n)
	telFilterSpilledChunks.Inc()
}
