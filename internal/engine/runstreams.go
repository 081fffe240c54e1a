package engine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/disk"
)

// Stream is one backup input for RunStreams.
type Stream struct {
	Label string
	R     io.Reader
}

// StreamResult is the outcome of one stream's backup, positionally matching
// the RunStreams input.
type StreamResult struct {
	Recipe *chunk.Recipe
	Stats  BackupStats
	Err    error
}

// StreamBackupper is implemented by engines whose ingest path is safe under
// concurrent streams. BackupStream behaves like Backup but charges every
// simulated cost (CPU, index pages, container I/O) to clk, the stream's own
// timeline, and writes unique chunks through a per-stream container writer.
type StreamBackupper interface {
	Engine
	BackupStream(ctx context.Context, label string, r io.Reader, clk *disk.Clock) (*chunk.Recipe, BackupStats, error)
}

// RunStreams ingests the given backup streams through e with at most
// concurrency backups in flight at once, and returns per-stream results (in
// input order) plus a deterministic merged BackupStats.
//
// concurrency <= 1 runs the plain serial loop — e.Backup per stream in input
// order — and is bit-identical to calling Backup yourself. The same serial
// loop is used when the engine does not implement StreamBackupper.
//
// With concurrency > 1 the timing model is per-stream lanes over shared
// state (the RevDedup-style optimistic model): every stream's clock starts
// at the engine clock's current reading, each stream pays its own simulated
// costs on its own clock while sharing the index shards, Bloom filter,
// container store, and LPC, and when the round completes the engine's master
// clock advances to the latest per-stream finish time — the wall-clock of a
// round of K concurrent backups is the slowest lane, not the sum.
//
// The serial loop charges the engine's master clock through the store's one
// serial container writer (see RunsSerially), so it must not run beside
// another master-clock ingest of e.
//
// The merged stats sum all byte/chunk/mechanism counters in input order;
// Duration is the elapsed master-clock time of the whole call under either
// mode. With concurrency K, lane w runs streams w, w+K, … in turn; the first
// stream error stops every lane before its next unstarted stream and is
// returned (already-running streams drain first).
func RunStreams(ctx context.Context, e Engine, streams []Stream, concurrency int) ([]StreamResult, BackupStats, error) {
	results := make([]StreamResult, len(streams))
	master := e.Clock()
	start := master.Now()

	if RunsSerially(e, len(streams), concurrency) {
		for i, s := range streams {
			recipe, stats, err := e.Backup(ctx, s.Label, s.R)
			results[i] = StreamResult{Recipe: recipe, Stats: stats, Err: err}
			if err != nil {
				break
			}
		}
	} else {
		if concurrency > len(streams) {
			concurrency = len(streams)
		}
		var (
			wg   sync.WaitGroup
			fail atomic.Bool
		)
		clocks := make([]disk.Clock, len(streams))
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Lane w is one simulated spindle that runs streams w, w+K,
				// w+2K, … back to back on its timeline, so K lanes over N
				// streams model K parallel spindles of queued backups, not N,
				// and which lane runs which stream does not depend on the
				// host's scheduler.
				lane := start
				for i := w; i < len(streams) && !fail.Load(); i += concurrency {
					s := streams[i]
					clocks[i].Advance(lane)
					recipe, stats, err := e.(StreamBackupper).BackupStream(ctx, s.Label, s.R, &clocks[i])
					lane = clocks[i].Now()
					results[i] = StreamResult{Recipe: recipe, Stats: stats, Err: err}
					if err != nil {
						fail.Store(true)
					}
				}
			}()
		}
		wg.Wait()
		// The round's wall-clock is the slowest lane: advance the master
		// clock to the latest per-stream finish time.
		var latest time.Duration
		for i := range clocks {
			if t := clocks[i].Now(); t > latest {
				latest = t
			}
		}
		if latest > master.Now() {
			master.Advance(latest - master.Now())
		}
	}

	merged := mergeStats(results)
	merged.Duration = master.Now() - start
	for i := range results {
		if results[i].Err != nil {
			return results, merged, fmt.Errorf("stream %q: %w", streams[i].Label, results[i].Err)
		}
	}
	return results, merged, nil
}

// RunsSerially reports whether RunStreams runs n streams through e with the
// plain serial loop on the master clock: concurrency <= 1, a single stream,
// or an engine without concurrent ingest.
func RunsSerially(e Engine, n, concurrency int) bool {
	_, canStream := e.(StreamBackupper)
	return concurrency <= 1 || !canStream || n <= 1
}

// mergeStats folds per-stream stats into one record, deterministically in
// input order. Duration is left for the caller (it is a property of the
// round, not a sum of lanes).
func mergeStats(results []StreamResult) BackupStats {
	var m BackupStats
	for i := range results {
		s := &results[i].Stats
		if m.Label == "" {
			m.Label = s.Label
		} else if s.Label != "" {
			m.Label += "+" + s.Label
		}
		m.LogicalBytes += s.LogicalBytes
		m.Chunks += s.Chunks
		m.Segments += s.Segments
		m.UniqueBytes += s.UniqueBytes
		m.UniqueChunks += s.UniqueChunks
		m.DedupedBytes += s.DedupedBytes
		m.DedupedChunks += s.DedupedChunks
		m.RewrittenBytes += s.RewrittenBytes
		m.RewrittenChunks += s.RewrittenChunks
		m.MissedDupBytes += s.MissedDupBytes
		m.SpilledBytes += s.SpilledBytes
		m.SpilledChunks += s.SpilledChunks
		m.FilterSpilled = m.FilterSpilled || s.FilterSpilled
		m.OracleRedundantBytes += s.OracleRedundantBytes
		m.PartialRedundantBytes += s.PartialRedundantBytes
		m.RemovedInPartialBytes += s.RemovedInPartialBytes
		m.IndexLookups += s.IndexLookups
		m.MetaPrefetches += s.MetaPrefetches
		m.CacheHits += s.CacheHits
		m.BlockReads += s.BlockReads
		m.SHTHits += s.SHTHits
	}
	return m
}
