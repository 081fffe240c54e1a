// Package silo implements the "SiLo-Like" engine: the similarity-locality
// deduplication scheme of Xia et al. (USENIX ATC'11) as the paper summarizes
// it. Instead of a full chunk index, SiLo keeps only a small RAM
// similarity-hash table (SHT) of segment representative fingerprints:
//
//   - chunks are grouped into segments, segments into blocks;
//   - each segment's representative fingerprint (min-hash) maps, in RAM, to
//     the block that contains it;
//   - an incoming segment whose representative matches fetches that block's
//     metadata from disk (one sequential read) and deduplicates against all
//     chunks of the block — exploiting the locality that similar segments'
//     neighbours are also shared;
//   - chunks not found in any fetched or RAM-resident block are written as
//     new, even if a copy exists elsewhere: SiLo is *near-exact*, trading a
//     little deduplication efficiency for never touching a full index.
//
// Efficiency therefore degrades as the paper's Fig. 3 shows: when earlier
// deduplication has de-linearized placement, the chunks that surround a
// similar segment in its block are decreasingly the ones the incoming
// stream needs, so more truly-redundant chunks go undetected.
package silo

import (
	"repro/internal/chunk"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/minhash"
	"repro/internal/segment"
)

// Config parameterizes a SiLo-Like engine.
type Config struct {
	engine.Config
	BlockSegments int // segments per block
	BlockCache    int // block-metadata cache capacity, in blocks
	SigReps       int // representative fingerprints per segment (k-min sketch)
}

// DefaultConfig sizes the engine for roughly expectedLogicalBytes of total
// ingested data. SiLo's RAM budget is deliberately tiny — that is its selling
// point — so the block cache holds only a couple of blocks: most similar-
// segment detections pay a block-metadata read, and duplicates outside the
// similar blocks' reach go undetected (the deduplication-efficiency loss the
// paper's Fig. 3 measures).
func DefaultConfig(expectedLogicalBytes int64) Config {
	cfg := engine.DefaultConfig()
	sp := cfg.SegParams
	expBlocks := int(expectedLogicalBytes/(sp.MaxBytes+sp.MinBytes)) + 1 // 2 typical segments per block
	return Config{Config: cfg, BlockSegments: 2, BlockCache: max(expBlocks/32, 2), SigReps: 3}
}

// blockEntry is one chunk recorded in a block's metadata.
type blockEntry struct {
	fp  chunk.Fingerprint
	loc chunk.Location
}

// blockEntrySize is the modeled on-disk footprint of one entry
// (fingerprint + location), used to charge block reads/writes.
const blockEntrySize = 56

// blockInfo is the shadow-directory record of one sealed block.
type blockInfo struct {
	off     int64 // offset of the block's metadata on the block device
	bytes   int64
	entries []blockEntry
}

// shtEntry is the similarity-hash-table record for one representative
// fingerprint: the block where the segment that introduced the
// representative physically wrote its data (origin), and the most recent
// block this content was written into (latest — rewritten misses and new
// edits). noBlock marks an unset latest slot.
type shtEntry struct {
	origin uint32
	latest uint32
}

const noBlock = ^uint32(0)

// fpEntry resolves a fingerprint through the RAM-resident block metadata.
type fpEntry struct {
	loc chunk.Location
	bid uint32
}

// Engine is the SiLo-Like deduplicator.
type Engine struct {
	*engine.Base
	cfg  Config
	bdev *disk.Device // block-metadata device

	sht    map[chunk.Fingerprint]shtEntry // representative fp → blocks
	blocks []blockInfo                    // shadow directory of sealed blocks

	cache   *lru.Cache[uint32, []blockEntry] // sealed-block metadata cache
	cacheFP map[chunk.Fingerprint]fpEntry    // union of cached blocks

	open    []blockEntry // metadata of the open (in-RAM) block
	openFP  map[chunk.Fingerprint]chunk.Location
	openSeg int // segments accumulated in the open block
}

// New builds a SiLo-Like engine over a fresh clock.
func New(cfg Config) (*Engine, error) {
	cfg.BlockSegments = max(cfg.BlockSegments, 1)
	cfg.BlockCache = max(cfg.BlockCache, 1)
	cfg.SigReps = max(cfg.SigReps, 1)
	e := &Engine{
		cfg:     cfg,
		sht:     make(map[chunk.Fingerprint]shtEntry, 1024),
		cache:   lru.New[uint32, []blockEntry](cfg.BlockCache),
		cacheFP: make(map[chunk.Fingerprint]fpEntry, 4096),
		openFP:  make(map[chunk.Fingerprint]chunk.Location, 1024),
	}
	b, err := engine.NewBase("silo-like", cfg.Config,
		engine.Rule{Segment: e.processSegment, Seal: e.sealBlock, Missed: true})
	if err != nil {
		return nil, err
	}
	e.Base = b
	e.bdev = disk.NewDevice(cfg.DiskModel, b.Clock(), false)
	e.cache.OnEvict(func(bid uint32, entries []blockEntry) {
		for _, be := range entries {
			if ent, ok := e.cacheFP[be.fp]; ok && ent.bid == bid {
				delete(e.cacheFP, be.fp)
			}
		}
	})
	return e, nil
}

// processSegment deduplicates one segment the SiLo way.
func (e *Engine) processSegment(in *engine.Ingest, segID uint64, seg *segment.Segment) error {
	stats := &in.Stats

	// Similarity detection: for each of the segment's representative
	// fingerprints, fetch the block where that content was originally
	// written and the block it was most recently written into.
	sig := minhash.Signature(seg.Chunks, e.cfg.SigReps)
	for _, rep := range sig {
		if ent, ok := e.sht[rep]; ok {
			stats.SHTHits++
			e.fetchBlock(ent.origin, stats)
			if ent.latest != noBlock && ent.latest != ent.origin {
				e.fetchBlock(ent.latest, stats)
			}
		}
	}

	var wrote int64
	for _, c := range seg.Chunks {
		loc, dup := e.lookup(c.FP)
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
			wrote++
			// Physically-written chunks are what the block holds.
			e.open = append(e.open, blockEntry{fp: c.FP, loc: loc})
			if _, exists := e.openFP[c.FP]; !exists {
				e.openFP[c.FP] = loc
			}
		}
		in.Recipe.Append(c.FP, c.Size, loc)
	}

	// Update the SHT. A new representative points at the open block (that
	// is where this content's physical copies are landing). A known
	// representative keeps its origin — the block holding the bulk of the
	// content — and, if this segment physically wrote anything, its latest
	// slot moves to the open block so the next generation can find those
	// fresh copies. Chunks written by generations in between drop off the
	// similarity horizon: that shrinking reach is SiLo's efficiency decay
	// under de-linearization (paper Fig. 3).
	openBID := uint32(len(e.blocks))
	for _, rep := range sig {
		ent, exists := e.sht[rep]
		switch {
		case !exists:
			e.sht[rep] = shtEntry{origin: openBID, latest: noBlock}
		case wrote > 0:
			ent.latest = openBID
			e.sht[rep] = ent
		}
	}
	e.openSeg++
	if e.openSeg >= e.cfg.BlockSegments {
		e.sealBlock()
	}
	return nil
}

// lookup resolves a fingerprint against RAM-resident block metadata: the
// open block first, then cached sealed blocks. Free — all RAM.
func (e *Engine) lookup(fp chunk.Fingerprint) (chunk.Location, bool) {
	if loc, ok := e.openFP[fp]; ok {
		return loc, true
	}
	if ent, ok := e.cacheFP[fp]; ok {
		e.cache.Get(ent.bid)
		return ent.loc, true
	}
	return chunk.Location{}, false
}

// fetchBlock ensures block bid's metadata is RAM-resident, charging one
// sequential disk read when it is not cached. bid may be the open block
// (already in RAM, free).
func (e *Engine) fetchBlock(bid uint32, stats *engine.BackupStats) {
	if int(bid) >= len(e.blocks) {
		return // open block: already in RAM
	}
	if e.cache.Contains(bid) {
		e.cache.Get(bid)
		return
	}
	info := e.blocks[bid]
	e.bdev.AccountRead(info.off, info.bytes)
	stats.BlockReads++
	e.cache.Put(bid, info.entries)
	for _, be := range info.entries {
		e.cacheFP[be.fp] = fpEntry{loc: be.loc, bid: bid}
	}
}

// sealBlock writes the open block's metadata to the block device and
// registers it in the shadow directory.
func (e *Engine) sealBlock() {
	if len(e.open) == 0 {
		e.openSeg = 0
		return
	}
	size := int64(len(e.open)) * blockEntrySize
	off := e.bdev.AppendHole(size)
	e.blocks = append(e.blocks, blockInfo{off: off, bytes: size, entries: e.open})
	e.open = nil
	e.openFP = make(map[chunk.Fingerprint]chunk.Location, 1024)
	e.openSeg = 0
}

var _ engine.Engine = (*Engine)(nil)
