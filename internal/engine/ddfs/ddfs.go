// Package ddfs implements the "DDFS-Like" engine: the deduplication
// approach of Zhu et al. (FAST'08) as the paper summarizes it, built from
// three RAM-side mechanisms in front of the on-disk full chunk index:
//
//  1. Summary vector — a Bloom filter over all stored fingerprints; most new
//     chunks are declared unique without touching disk.
//  2. Stream-informed layout — new chunks are packed into containers in
//     arrival order (internal/container).
//  3. Locality-preserved caching (LPC) — when a duplicate is found via the
//     on-disk index, the metadata of its whole container is prefetched into
//     a RAM cache, so the duplicates that follow it in the stream (spatial
//     locality!) are resolved for free.
//
// The engine's throughput therefore degrades exactly the way the paper's
// Fig. 2 shows: as earlier generations scatter a stream's duplicate chunks
// over many containers, each prefetched container yields fewer future hits,
// and the per-chunk probability of paying an index lookup + metadata
// prefetch (two seeks) climbs.
//
// The lookup machinery itself lives in engine.Resolver, and the shell
// around it in engine.Indexed, both shared with DeFrag.
package ddfs

import (
	"repro/internal/chunk"
	"repro/internal/engine"
	"repro/internal/segment"
)

// Config parameterizes a DDFS-Like engine.
type Config struct {
	engine.Config
	engine.IndexConfig
}

// DefaultConfig sizes an engine for roughly expectedLogicalBytes of total
// ingested data across all generations (see engine.DefaultIndexConfig).
func DefaultConfig(expectedLogicalBytes int64) Config {
	cfg := engine.DefaultConfig()
	return Config{cfg, engine.DefaultIndexConfig(cfg, expectedLogicalBytes)}
}

// Engine is the DDFS-Like deduplicator.
type Engine struct {
	*engine.Indexed
}

// New builds a DDFS-Like engine with its own devices over a fresh clock.
func New(cfg Config) (*Engine, error) {
	x, err := engine.NewIndexed("ddfs-like", cfg.Config, cfg.IndexConfig, engine.Rule{Segment: processSegment})
	if err != nil {
		return nil, err
	}
	return &Engine{x}, nil
}

// processSegment deduplicates one segment: its chunks are resolved as a
// bucket-batched lookup (chunks sharing an index page cost one modeled page
// read), then placed in stream order. Chunks that duplicate a chunk written
// earlier in the same segment reference that fresh copy directly.
func processSegment(in *engine.Ingest, segID uint64, seg *segment.Segment) error {
	stats := &in.Stats
	res := in.Resolver.ResolveBatch(seg.Chunks, stats)
	var writtenHere map[chunk.Fingerprint]chunk.Location
	for i, c := range seg.Chunks {
		loc, dup := res[i].Loc, res[i].Dup
		if !dup {
			if prev, again := writtenHere[c.FP]; again {
				loc, dup = prev, true
			}
		}
		if dup {
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
		} else {
			var werr error
			loc, werr = in.W.Write(in.Ctx, c, segID)
			if werr != nil {
				return werr
			}
			in.Resolver.RegisterNew(c.FP, loc)
			if writtenHere == nil {
				writtenHere = make(map[chunk.Fingerprint]chunk.Location)
			}
			writtenHere[c.FP] = loc
			stats.UniqueBytes += int64(c.Size)
			stats.UniqueChunks++
		}
		in.Recipe.Append(c.FP, c.Size, loc)
	}
	return nil
}

var (
	_ engine.StreamBackupper = (*Engine)(nil)
	_ engine.Adopter         = (*Engine)(nil)
)
