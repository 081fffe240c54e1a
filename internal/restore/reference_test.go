package restore

// The serial reference loops RunPipelined replaced, kept word for word as
// the oracles its schedules are compared with: Run is the LRU container
// cache (TestSerialPipelinedMatchesRun), RunFAA the forward assembly area
// (TestFAAPlanMatchesReference).

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/lru"
	"repro/internal/telemetry"
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
			datas, err := store.ReadDataRange(ctx, []uint32{ref.Loc.Container})
			if err != nil {
				return stats, err
			}
			data = datas[0]
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

// FAAConfig parameterizes a forward-assembly-area restore.
type FAAConfig struct {
	// AreaBytes is the assembly buffer size: the window of the stream
	// being reconstructed at once.
	AreaBytes int64
	// Verify recomputes chunk fingerprints (requires a data-storing device).
	Verify bool
}

// DefaultFAAConfig returns a 32 MiB assembly area.
func DefaultFAAConfig() FAAConfig { return FAAConfig{AreaBytes: 32 << 20} }

// RunFAA restores a recipe with the forward-assembly-area algorithm (the
// restore-side counterpart of Lillibridge et al.'s FAST'13 analysis, and
// the main alternative to the LRU container cache of Run): the stream is
// reconstructed window by window, and within one window every needed
// container is read exactly once, no matter how badly the recipe
// interleaves. Memory is bounded by AreaBytes instead of a container count.
//
// For a fragmented recipe FAA trades the cache's thrash behaviour for one
// guaranteed read per container per window — which of the two wins depends
// on the fragmentation structure; RunRestoreAblation in the public API
// compares them.
func RunFAA(ctx context.Context, store *container.Store, recipe *chunk.Recipe, cfg FAAConfig, w io.Writer) (Stats, error) {
	if cfg.AreaBytes < 1 {
		cfg.AreaBytes = 1
	}
	if err := checkVerify(store, cfg.Verify); err != nil {
		return Stats{}, err
	}
	stats := Stats{Label: recipe.Label, Fragments: recipe.Fragments()}
	clock := store.Device().Clock()
	start := clock.Now()
	ctx, span := telemetry.StartSpan(ctx, "restore.faa")
	defer span.End()
	telFragments.Observe(float64(stats.Fragments))

	refs := recipe.Refs
	for lo := 0; lo < len(refs); {
		// Extend the window to the assembly-area budget (always include at
		// least one chunk so oversized chunks still restore).
		hi := lo
		var windowBytes int64
		for hi < len(refs) {
			sz := int64(refs[hi].Size)
			if hi > lo && windowBytes+sz > cfg.AreaBytes {
				break
			}
			windowBytes += sz
			hi++
		}

		// One pass: containers in first-appearance order, each read once.
		containerData := make(map[uint32][]byte)
		for i := lo; i < hi; i++ {
			cid := refs[i].Loc.Container
			if _, ok := containerData[cid]; ok {
				continue
			}
			if !store.Sealed(cid) {
				return stats, fmt.Errorf("restore: recipe references unsealed container %d", cid)
			}
			datas, err := store.ReadDataRange(ctx, []uint32{cid})
			if err != nil {
				return stats, err
			}
			data := datas[0]
			containerData[cid] = data
			stats.ContainerReads++
			stats.ReadBytes += int64(len(data))
			telContainerReads.Inc()
		}

		// Assemble the window in stream order.
		for i := lo; i < hi; i++ {
			ref := &refs[i]
			piece := store.Extract(containerData[ref.Loc.Container], ref.Loc)
			if cfg.Verify {
				if got := chunk.Of(piece); got != ref.FP {
					return stats, fmt.Errorf("restore: chunk %d fingerprint mismatch (%s != %s)", i, got.Short(), ref.FP.Short())
				}
			}
			if w != nil {
				if _, err := w.Write(piece); err != nil {
					return stats, err
				}
			}
			stats.Bytes += int64(ref.Size)
			stats.Chunks++
		}
		lo = hi
	}
	stats.CacheHits = stats.Chunks - stats.ContainerReads
	if stats.CacheHits < 0 {
		stats.CacheHits = 0
	}
	stats.ExtentReads = stats.ContainerReads // FAA reads are uncoalesced

	stats.Duration = clock.Now() - start
	telRestoreBytes.Add(stats.Bytes)
	telRestoreChunks.Add(stats.Chunks)
	telRestoreCacheHits.Add(stats.CacheHits)
	span.SetSim(stats.Duration)
	return stats, nil
}
