// Package restore reconstructs backup streams from recipes and measures the
// paper's third metric, data read performance.
//
// The restore path reads whole container data sections through a small LRU
// cache (real restore engines do exactly this: a fragmented stream thrashes
// the cache and pays a seek per fragment, a linearized stream streams).
// Read time is disk-model time: every cache miss costs one seek plus the
// container's data transfer — the paper's Eq. 1 cost structure at container
// granularity.
package restore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/lru"
	"repro/internal/telemetry"
)

// Live telemetry of the restore hot path. restore_container_reads_total is
// the seek count of the paper's Eq. 1 (every container read that misses the
// cache is one discontiguous access: N·T_seek); the cache counters come from
// the LRU itself, and restore_fragments_per_stream observes Eq. 1's N per
// restored recipe.
var (
	telContainerReads = telemetry.NewCounter("restore_container_reads_total",
		"full container data-section reads during restores (Eq. 1 seek events)")
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

// Config parameterizes a restore run.
type Config struct {
	// CacheContainers is the restore cache capacity in containers.
	CacheContainers int
	// Verify recomputes each chunk's fingerprint and compares (requires a
	// data-storing container device; silently meaningless otherwise, so Run
	// rejects Verify on a hole device).
	Verify bool
}

// DefaultConfig returns an 8-container restore cache, no verification.
func DefaultConfig() Config { return Config{CacheContainers: 8} }

// Stats summarizes one restore.
type Stats struct {
	Label          string
	Bytes          int64
	Chunks         int64
	ContainerReads int64 // cache misses: full data-section reads
	// ReadBytes is the bytes of those sections: what the restore asked the
	// backend for (less whatever a shared data cache served from memory).
	// ReadBytes / Bytes is the restore's read amplification.
	ReadBytes int64
	CacheHits int64 // chunks served from cached containers
	// ExtentReads counts physical discontiguous reads (Eq. 1's N). Without
	// coalescing it equals ContainerReads; the pipelined engine folds
	// adjacent containers into one extent, so ExtentReads < ContainerReads.
	ExtentReads int64
	// CoalescedContainers = ContainerReads - ExtentReads: the seeks the
	// coalescer saved.
	CoalescedContainers int64
	// PeakCacheBytes is the cache memory high-water mark in chunk-level
	// caching mode (0 for whole-container caches, whose footprint is just
	// capacity × container data size).
	PeakCacheBytes int64
	Fragments      int // recipe placement fragments (paper Eq. 1's N)
	Duration       time.Duration
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
// zero-filled data would "verify" garbage silently. Shared by every restore
// mode (Run, RunFAA, RunPipelined).
func checkVerify(store *container.Store, verify bool) error {
	if verify && !store.StoresData() {
		return fmt.Errorf("restore: Verify requires a data-storing backend")
	}
	return nil
}

// Run restores recipe from store, writing reconstructed bytes to w (pass
// nil to measure without materializing). The simulated time consumed is
// charged to the store's device clock and reported in Stats.Duration.
//
// Cache accounting has a single source of truth: the LRU's own counters,
// read back into Stats on every exit path (including errors, where Stats
// carries the partial counts). The telemetry counters are mirrored by
// lru.Instrument from those same counters, so Stats and /metrics cannot
// drift.
func Run(ctx context.Context, store *container.Store, recipe *chunk.Recipe, cfg Config, w io.Writer) (stats Stats, err error) {
	if cfg.CacheContainers < 1 {
		cfg.CacheContainers = 1
	}
	if err := checkVerify(store, cfg.Verify); err != nil {
		return Stats{}, err
	}
	stats = Stats{Label: recipe.Label, Fragments: recipe.Fragments()}
	clock := store.Device().Clock()
	start := clock.Now()
	ctx, span := telemetry.StartSpan(ctx, "restore.run")
	defer span.End()
	telFragments.Observe(float64(stats.Fragments))

	cache := lru.New[uint32, []byte](cfg.CacheContainers)
	cache.Instrument(telRestoreCacheHits, telRestoreCacheMisses, telRestoreCacheEvictions)
	defer func() {
		hits, misses, _ := cache.Stats()
		stats.CacheHits = int64(hits)
		stats.ContainerReads = int64(misses)
		// Every legacy-path container read is its own discontiguous access.
		stats.ExtentReads = stats.ContainerReads
	}()
	for i := range recipe.Refs {
		ref := &recipe.Refs[i]
		if !store.Sealed(ref.Loc.Container) {
			return stats, fmt.Errorf("restore: recipe references unsealed container %d", ref.Loc.Container)
		}
		data, ok := cache.Get(ref.Loc.Container)
		if !ok {
			data, err = store.ReadData(ctx, ref.Loc.Container)
			if err != nil {
				return stats, err
			}
			telContainerReads.Inc()
			stats.ReadBytes += int64(len(data))
			cache.Put(ref.Loc.Container, data)
		}
		t0 := time.Now()
		piece := store.Extract(data, ref.Loc)
		if cfg.Verify {
			if got := chunk.Of(piece); got != ref.FP {
				return stats, fmt.Errorf("restore: chunk %d fingerprint mismatch (%s != %s)", i, got.Short(), ref.FP.Short())
			}
		}
		stageDecode.Observe(t0)
		if w != nil {
			t1 := time.Now()
			_, err := w.Write(piece)
			stageCopy.Observe(t1)
			if err != nil {
				return stats, err
			}
		}
		stats.Bytes += int64(ref.Size)
		stats.Chunks++
	}
	stats.Duration = clock.Now() - start
	telRestoreBytes.Add(stats.Bytes)
	telRestoreChunks.Add(stats.Chunks)
	span.SetSim(stats.Duration)
	return stats, nil
}

// VerifyAgainst restores the recipe and compares the byte stream with want,
// returning an error on any divergence. Test helper for end-to-end
// correctness runs.
func VerifyAgainst(ctx context.Context, store *container.Store, recipe *chunk.Recipe, cfg Config, want []byte) error {
	return VerifyAgainstFunc(func(w io.Writer) (Stats, error) {
		return Run(ctx, store, recipe, cfg, w)
	}, want)
}

// VerifyAgainstFunc runs any restore mode (as a closure over its own config)
// into a buffer and compares the reconstructed stream with want. It lets the
// same end-to-end check cover Run, RunFAA, and every RunPipelined variant.
func VerifyAgainstFunc(run func(io.Writer) (Stats, error), want []byte) error {
	var buf bytes.Buffer
	if _, err := run(&buf); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return fmt.Errorf("restore: reconstructed stream differs from original (%d vs %d bytes)", buf.Len(), len(want))
	}
	return nil
}
