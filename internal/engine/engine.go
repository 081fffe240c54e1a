// Package engine defines the interface shared by the deduplication engines
// (DDFS-Like, SiLo-Like, Sparse-Indexing, iDedup, DeFrag), the common
// backup pipeline:
// stream → CDC chunks → fingerprints → content-defined segments → the
// engine's per-segment dedup logic,
// and the shell every engine runs in (Base, Indexed): the clock, the
// container store, the oracle, and the one backup body around Pipeline.
// An engine adds only its per-segment Rule.
//
// Time accounting: the pipeline charges CPU cost (chunking + SHA-256 at
// CostModel.CPUBandwidth) and each engine charges its own disk costs through
// the shared disk.Clock. A backup's throughput is logical bytes divided by
// the clock delta across the backup.
package engine

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
)

// CostModel holds the CPU-side cost parameters.
type CostModel struct {
	// CPUBandwidth is the modeled pipeline rate (bytes/second) of chunking
	// plus fingerprinting plus in-RAM bookkeeping.
	CPUBandwidth float64
}

// DefaultCostModel returns 750 MB/s, calibrated so that a first-generation
// (all-unique) backup under DDFS lands at the paper's ~213 MB/s:
// 1/(1/750 + 1/300 write) ≈ 214 MB/s. See EXPERIMENTS.md.
func DefaultCostModel() CostModel { return CostModel{CPUBandwidth: 750e6} }

// ChargeCPU advances the clock by the CPU time for n bytes.
func (m CostModel) ChargeCPU(clock *disk.Clock, n int64) {
	clock.Advance(time.Duration(float64(n) / m.CPUBandwidth * float64(time.Second)))
}

// BackupStats summarizes one backup generation through one engine.
type BackupStats struct {
	Label        string
	LogicalBytes int64 // bytes of the incoming stream
	Chunks       int64
	Segments     int64

	UniqueBytes     int64 // new unique chunk bytes written
	UniqueChunks    int64
	DedupedBytes    int64 // redundant bytes removed (referenced, not written)
	DedupedChunks   int64
	RewrittenBytes  int64 // redundant bytes deliberately written anyway
	RewrittenChunks int64
	MissedDupBytes  int64 // redundant bytes the engine failed to detect (SiLo)
	SpilledBytes    int64 // probable-duplicate bytes written through by the inline filter
	SpilledChunks   int64
	FilterSpilled   bool // the stream was demoted to spill (write-through) mode

	Duration time.Duration // simulated time consumed by this backup

	// Ground-truth fields, filled only when the engine was given an oracle
	// (Engine.SetOracle). The oracle is measurement apparatus — it
	// charges no simulated time and influences no engine decision.
	OracleRedundantBytes  int64 // bytes whose fingerprint was stored before (exact)
	PartialRedundantBytes int64 // oracle-redundant bytes within partially-redundant segments
	RemovedInPartialBytes int64 // bytes the engine actually removed within those segments

	// Mechanism counters (engine-specific ones stay zero elsewhere).
	IndexLookups   int64 // charged full-index lookups
	MetaPrefetches int64 // container-metadata prefetch reads (DDFS/DeFrag)
	CacheHits      int64 // dup chunks resolved from the RAM locality cache
	BlockReads     int64 // block-metadata reads (SiLo)
	SHTHits        int64 // similar-segment detections (SiLo)
}

// ThroughputMBps returns the backup throughput in MB/s (10^6 bytes/s).
func (s BackupStats) ThroughputMBps() float64 {
	sec := s.Duration.Seconds()
	if sec == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / sec / 1e6
}

// WrittenBytes returns the physical chunk-data bytes this backup added.
func (s BackupStats) WrittenBytes() int64 { return s.UniqueBytes + s.RewrittenBytes }

func (s BackupStats) String() string {
	return fmt.Sprintf("%s: %.1f MB logical, %.1f MB/s, unique %.1f MB, deduped %.1f MB, rewritten %.1f MB",
		s.Label, float64(s.LogicalBytes)/1e6, s.ThroughputMBps(),
		float64(s.UniqueBytes)/1e6, float64(s.DedupedBytes)/1e6, float64(s.RewrittenBytes)/1e6)
}

// Efficiency returns the paper's Fig. 3/Fig. 5 deduplication-efficiency
// metric for this backup: redundant bytes removed divided by redundant
// bytes present, restricted to partially-redundant segments (see DESIGN.md).
// It returns 1 when the restricted denominator is zero (nothing to miss) and
// 0 when no oracle was attached.
func (s BackupStats) Efficiency() float64 {
	if s.OracleRedundantBytes == 0 {
		return 0
	}
	if s.PartialRedundantBytes == 0 {
		return 1
	}
	eff := float64(s.RemovedInPartialBytes) / float64(s.PartialRedundantBytes)
	if eff > 1 {
		eff = 1
	}
	return eff
}

// Engine is one deduplication approach.
type Engine interface {
	// Name identifies the engine ("ddfs-like", "silo-like", "sparse-index",
	// "idedup", "defrag").
	Name() string
	// Backup deduplicates one full-backup stream, returning the recipe that
	// restores it and per-backup statistics. Cancelling ctx aborts the
	// backup between segments and before any backend write; the engine
	// leaves the store consistent (sealed containers stay sealed, the index
	// flushes) so an aborted backup is absent, not corrupt.
	Backup(ctx context.Context, label string, r io.Reader) (*chunk.Recipe, BackupStats, error)
	// Containers exposes the engine's container store for restores.
	Containers() *container.Store
	// Clock exposes the shared simulated clock.
	Clock() *disk.Clock
	// SetOracle attaches a ground-truth oracle; subsequent backups fill the
	// Oracle* fields of their BackupStats. The oracle must observe every
	// stream an experiment ingests, so share one oracle across an engine's
	// lifetime.
	SetOracle(*cindex.Oracle)
}

// Adopter is implemented by engines that can rebuild their in-RAM state
// (chunk index, summary vector, segment sequence) from an already-populated
// container store — the reopen path of durable backends.
type Adopter interface {
	// Adopt ingests the container store's directory. It must be called on a
	// freshly constructed engine, before any Backup.
	Adopt(ctx context.Context) error
}
