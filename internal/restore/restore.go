// Package restore reconstructs backup streams from recipes and measures the
// paper's third metric, data read performance.
//
// The restore path reads whole container data sections through a small
// cache (real restore engines do exactly this: a fragmented stream thrashes
// the cache and pays a seek per fragment, a linearized stream streams).
// Read time is disk-model time: every cache miss costs one seek plus the
// container's data transfer — the paper's Eq. 1 cost structure at container
// granularity.
//
// There is one restore loop, RunPipelined (pipeline.go): a recipe is compiled
// into a fetch schedule under one of three policies — LRU, OPT, forward
// assembly (plan.go) — and one executor runs it. The maintenance merge copies
// live chunks forward on the same executor (Emit).
package restore

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/telemetry"
)

// Live telemetry of the restore hot path. restore_container_reads_total is
// the seek count of the paper's Eq. 1 (every container read that misses the
// cache is one discontiguous access: N·T_seek); the cache counters are read
// off the fetch schedule, whatever its policy (hits are the refs that fetch
// nothing, misses the fetches, evictions the containers the policy evicts —
// the executor lets each section go at its last use, before that),
// and restore_fragments_per_stream observes Eq. 1's N per restored recipe.
var (
	telContainerReads = telemetry.NewCounter("restore_container_reads_total",
		"container data-section fetches during restores, each of a whole section (Eq. 1 seek events)")
	telRestoreCacheHits = telemetry.NewCounter("restore_cache_hits_total",
		"chunks served from the restore container cache")
	telRestoreCacheMisses = telemetry.NewCounter("restore_cache_misses_total",
		"restore container-cache misses")
	telRestoreCacheEvictions = telemetry.NewCounter("restore_cache_evictions_total",
		"restore container-cache evictions (thrash indicator on fragmented streams)")
	telRestoreBytes = telemetry.NewCounter("restore_bytes_total",
		"logical bytes reconstructed by restores")
	telRestoreChunks = telemetry.NewCounter("restore_chunks_total",
		"chunks reconstructed by restores")
	telFragments = telemetry.NewHistogram("restore_fragments_per_stream",
		"placement fragments per restored stream (the N of paper Eq. 1)",
		telemetry.CountBuckets)
)

// Per-stage wall clocks of the restore hot path (the always-on layer; see
// telemetry/stage.go). "decode" is chunk extraction from fetched container
// data plus optional fingerprint verification; "copy" is writing the
// reconstructed bytes to the caller's sink. Container fetches themselves are
// the container layer's "container_read" stage.
var (
	stageDecode = telemetry.Stage("decode")
	stageCopy   = telemetry.Stage("copy")
)

// Stats summarizes one restore.
type Stats struct {
	Label          string
	Bytes          int64
	Chunks         int64
	ContainerReads int64 // cache misses: data-section fetches
	// ReadBytes is the bytes of the whole sections those fetches returned.
	// ReadBytes / Bytes is the restore's read amplification; the simulated
	// clock charges the same whole containers.
	ReadBytes int64
	CacheHits int64 // chunks served from cached containers
	// ExtentReads counts physical discontiguous reads (Eq. 1's N). Without
	// coalescing it equals ContainerReads; the pipelined engine folds
	// adjacent containers into one extent, so ExtentReads < ContainerReads.
	ExtentReads int64
	// CoalescedContainers = ContainerReads - ExtentReads: the seeks the
	// coalescer saved.
	CoalescedContainers int64
	Fragments           int // recipe placement fragments (paper Eq. 1's N)
	Duration            time.Duration
}

// ThroughputMBps returns restore bandwidth in MB/s.
func (s Stats) ThroughputMBps() float64 {
	sec := s.Duration.Seconds()
	if sec == 0 {
		return 0
	}
	return float64(s.Bytes) / sec / 1e6
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %.1f MB restored at %.1f MB/s (%d container reads, %d fragments)",
		s.Label, float64(s.Bytes)/1e6, s.ThroughputMBps(), s.ContainerReads, s.Fragments)
}

// checkVerify rejects Verify on a hole device: recomputing fingerprints of
// zero-filled data would "verify" garbage silently.
func checkVerify(store *container.Store, verify bool) error {
	if verify && !store.StoresData() {
		return fmt.Errorf("restore: Verify requires a data-storing backend")
	}
	return nil
}

// VerifyAgainst restores the recipe and compares the byte stream with want,
// returning an error on any divergence. Test helper for end-to-end
// correctness runs.
func VerifyAgainst(ctx context.Context, store *container.Store, recipe *chunk.Recipe, cfg PipelineConfig, want []byte) error {
	var buf bytes.Buffer
	if _, err := RunPipelined(ctx, store, recipe, cfg, &buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("restore: reconstructed stream differs from original (%d vs %d bytes)", buf.Len(), len(want))
	}
	return nil
}
