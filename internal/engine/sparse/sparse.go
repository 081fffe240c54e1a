// Package sparse implements a Sparse-Indexing engine (Lillibridge et al.,
// FAST'09), the other locality-exploiting deduplicator the paper names in
// §II-B: "the exploration of spatial locality ... to alleviate the disk
// bottleneck such as in DDFS and Sparse Indexing."
//
// Sparse Indexing keeps no full chunk index at all. Instead it:
//
//   - samples each incoming segment's fingerprints ("hooks": fingerprints
//     whose low bits are zero, one in 2^SampleBits chunks on average);
//   - keeps a small RAM table mapping hooks to the manifests (segment
//     recipes) that contained them;
//   - for each incoming segment, picks the stored manifests sharing the
//     most hooks (the "champions"), loads them from disk (one sequential
//     read each), and deduplicates only against those.
//
// Like SiLo it is near-exact: duplicates outside the champions' reach are
// written again. And like every locality-based scheme, its effectiveness
// rests on the spatial locality the paper shows deduplication itself
// erodes: as placement de-linearizes, an incoming segment's duplicates
// spread over more manifests than MaxChampions can cover.
package sparse

import (
	"sort"

	"repro/internal/chunk"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/segment"
)

// Config parameterizes a Sparse-Indexing engine.
type Config struct {
	engine.Config
	SampleBits    int // a fingerprint is a hook when its low SampleBits bits are zero
	MaxChampions  int // manifests loaded per incoming segment (paper: up to 10)
	MaxPerHook    int // manifest IDs remembered per hook (RAM bound)
	ManifestCache int // manifest cache capacity
}

// DefaultConfig sizes the engine for expectedLogicalBytes of ingest,
// holding the same scale-invariant RAM-starved regime as the other engines.
func DefaultConfig(expectedLogicalBytes int64) Config {
	cfg := engine.DefaultConfig()
	expManifests := int(expectedLogicalBytes/cfg.SegParams.MaxBytes) + 1
	return Config{
		Config: cfg,
		// 1/16 sampling: the FAST'09 system samples 1/64 of ~10 MB segments;
		// at this reproduction's 0.5–2 MB segments the same ~10+ hooks per
		// segment need a denser rate, else small segments go hookless and
		// dedupe nothing.
		SampleBits:    4,
		MaxChampions:  4,
		MaxPerHook:    3,
		ManifestCache: max(expManifests/64, 4),
	}
}

// manifestEntry is one chunk reference in a stored manifest.
type manifestEntry struct {
	fp  chunk.Fingerprint
	loc chunk.Location
}

// manifestEntrySize models the on-disk footprint of one entry.
const manifestEntrySize = 56

// manifest is the shadow record of one stored segment recipe.
type manifest struct {
	off     int64
	bytes   int64
	entries []manifestEntry
}

// Engine is the Sparse-Indexing deduplicator.
type Engine struct {
	*engine.Base
	cfg  Config
	mdev *disk.Device // manifest device

	sparse    map[chunk.Fingerprint][]uint32 // hook → manifest IDs (bounded)
	manifests []manifest

	cache   *lru.Cache[uint32, []manifestEntry]
	cacheFP map[chunk.Fingerprint]fpEntry
}

type fpEntry struct {
	loc chunk.Location
	mid uint32
}

// New builds a Sparse-Indexing engine over a fresh clock.
func New(cfg Config) (*Engine, error) {
	cfg.SampleBits = max(cfg.SampleBits, 0)
	cfg.MaxChampions = max(cfg.MaxChampions, 1)
	cfg.MaxPerHook = max(cfg.MaxPerHook, 1)
	cfg.ManifestCache = max(cfg.ManifestCache, 1)
	e := &Engine{
		cfg:     cfg,
		sparse:  make(map[chunk.Fingerprint][]uint32, 1024),
		cache:   lru.New[uint32, []manifestEntry](cfg.ManifestCache),
		cacheFP: make(map[chunk.Fingerprint]fpEntry, 4096),
	}
	b, err := engine.NewBase("sparse-index", cfg.Config, engine.Rule{Segment: e.processSegment, Missed: true})
	if err != nil {
		return nil, err
	}
	e.Base = b
	e.mdev = disk.NewDevice(cfg.DiskModel, b.Clock(), false)
	e.cache.OnEvict(func(mid uint32, entries []manifestEntry) {
		for _, me := range entries {
			if ent, ok := e.cacheFP[me.fp]; ok && ent.mid == mid {
				delete(e.cacheFP, me.fp)
			}
		}
	})
	return e, nil
}

// isHook reports whether fp is a sampled fingerprint.
func (e *Engine) isHook(fp chunk.Fingerprint) bool {
	mask := uint64(1)<<uint(e.cfg.SampleBits) - 1
	return fp.Uint64()&mask == 0
}

// processSegment deduplicates one segment against its champion manifests.
func (e *Engine) processSegment(in *engine.Ingest, segID uint64, seg *segment.Segment) error {
	stats := &in.Stats

	// Collect the segment's hooks and vote for candidate manifests.
	votes := make(map[uint32]int)
	var hooks []chunk.Fingerprint
	for _, c := range seg.Chunks {
		if e.isHook(c.FP) {
			hooks = append(hooks, c.FP)
			for _, mid := range e.sparse[c.FP] {
				votes[mid]++
			}
		}
	}
	// Champion selection: manifests with the most hook votes.
	type cand struct {
		mid   uint32
		votes int
	}
	cands := make([]cand, 0, len(votes))
	for mid, v := range votes {
		cands = append(cands, cand{mid, v})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].votes != cands[j].votes {
			return cands[i].votes > cands[j].votes
		}
		return cands[i].mid > cands[j].mid // tie-break: newer manifest
	})
	if len(cands) > e.cfg.MaxChampions {
		cands = cands[:e.cfg.MaxChampions]
	}
	for _, c := range cands {
		stats.SHTHits++
		e.loadManifest(c.mid, stats)
	}

	// Deduplicate against the RAM-resident manifests and build this
	// segment's own manifest.
	entries := make([]manifestEntry, 0, len(seg.Chunks))
	for _, c := range seg.Chunks {
		loc, dup := e.cacheLookup(c.FP)
		if dup {
			stats.DedupedBytes += int64(c.Size)
			stats.DedupedChunks++
		} else {
			var werr error
			loc, werr = in.W.Write(in.Ctx, c, segID)
			if werr != nil {
				return werr
			}
			stats.UniqueBytes += int64(c.Size)
			stats.UniqueChunks++
		}
		in.Recipe.Append(c.FP, c.Size, loc)
		entries = append(entries, manifestEntry{fp: c.FP, loc: loc})
	}

	// Store the manifest (sequential write) and register its hooks.
	mid := uint32(len(e.manifests))
	size := int64(len(entries)) * manifestEntrySize
	off := e.mdev.AppendHole(size)
	e.manifests = append(e.manifests, manifest{off: off, bytes: size, entries: entries})
	for _, h := range hooks {
		ids := e.sparse[h]
		ids = append(ids, mid)
		if len(ids) > e.cfg.MaxPerHook {
			ids = ids[len(ids)-e.cfg.MaxPerHook:] // keep the newest
		}
		e.sparse[h] = ids
	}
	// The fresh manifest is RAM-resident (it was just built).
	e.insertCache(mid, entries)
	return nil
}

// cacheLookup resolves a fingerprint against the cached manifests.
func (e *Engine) cacheLookup(fp chunk.Fingerprint) (chunk.Location, bool) {
	if ent, ok := e.cacheFP[fp]; ok {
		e.cache.Get(ent.mid)
		return ent.loc, true
	}
	return chunk.Location{}, false
}

// loadManifest ensures manifest mid is RAM-resident, charging one
// sequential read on a cache miss.
func (e *Engine) loadManifest(mid uint32, stats *engine.BackupStats) {
	if int(mid) >= len(e.manifests) {
		return
	}
	if e.cache.Contains(mid) {
		e.cache.Get(mid)
		return
	}
	m := e.manifests[mid]
	e.mdev.AccountRead(m.off, m.bytes)
	stats.BlockReads++
	e.insertCache(mid, m.entries)
}

func (e *Engine) insertCache(mid uint32, entries []manifestEntry) {
	e.cache.Put(mid, entries)
	for _, me := range entries {
		e.cacheFP[me.fp] = fpEntry{loc: me.loc, mid: mid}
	}
}

var _ engine.Engine = (*Engine)(nil)
