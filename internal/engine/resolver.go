package engine

import (
	"sync"
	"time"

	"repro/internal/bloom"
	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/lru"
)

// Resolver is the DDFS duplicate-identification machinery — summary vector
// (Bloom filter), on-disk full chunk index, and locality-preserved cache of
// container metadata — shared by the DDFS-Like engine and by DeFrag (whose
// §III-B design "works after finding out all the redundant data chunks and
// the correlated locations", i.e. on top of exactly this machinery).
//
// The resolver is safe for concurrent use: the Bloom filter is atomic, the
// index is lock-striped, and the LPC plus the current-location table are
// guarded by the resolver mutex. Per-stream cost attribution goes through
// Stream, which binds a stream clock and container writer.
type Resolver struct {
	filter *bloom.Filter
	index  *cindex.Index
	store  *container.Store

	mu     sync.Mutex // guards lpc, lpcFPs, current
	lpc    *lru.Cache[uint32, []container.Meta]
	lpcFPs map[chunk.Fingerprint]lpcEntry

	// current holds the authoritative location of every chunk that Repoint
	// has moved (DeFrag's rewrite path). Container metadata is immutable, so
	// a cached container can serve stale locations for chunks whose newest
	// copy is a rewritten one; DeFrag's whole benefit depends on resolving
	// to the newest (linearized) copy, so this RAM-side current-location
	// table is consulted before the LPC. It only ever holds rewritten
	// chunks — it stays empty under plain DDFS.
	current map[chunk.Fingerprint]chunk.Location
}

type lpcEntry struct {
	loc chunk.Location
	cid uint32
}

// NewResolver builds the machinery over an existing index and container
// store. lpcContainers sizes the locality-preserved cache; expectedChunks
// sizes the Bloom filter.
func NewResolver(index *cindex.Index, store *container.Store, lpcContainers, expectedChunks int) *Resolver {
	if lpcContainers < 1 {
		lpcContainers = 1
	}
	if expectedChunks < 1 {
		expectedChunks = 1
	}
	r := &Resolver{
		filter:  bloom.New(expectedChunks, 0.01),
		index:   index,
		store:   store,
		lpc:     lru.New[uint32, []container.Meta](lpcContainers),
		lpcFPs:  make(map[chunk.Fingerprint]lpcEntry, 4096),
		current: make(map[chunk.Fingerprint]chunk.Location),
	}
	r.lpc.Instrument(nil, nil, telLPCEvictions)
	r.lpc.OnEvict(func(cid uint32, metas []container.Meta) {
		for _, m := range metas {
			if ent, ok := r.lpcFPs[m.FP]; ok && ent.cid == cid {
				delete(r.lpcFPs, m.FP)
			}
		}
	})
	store.OnLost(func(cid uint32, metas []container.Meta) { r.drop(cid, metas) })
	return r
}

// StreamResolver binds the shared resolver to one backup stream: index page
// reads and container-metadata prefetches are charged to the stream's clock,
// and prefetches read through the stream's container writer view.
type StreamResolver struct {
	r  *Resolver
	ih cindex.Handle
	w  *container.Writer
}

// Stream returns a per-stream view of the resolver. A nil clk charges the
// resolver's own devices (the serial path); w supplies the metadata-read
// path and may not be nil.
func (r *Resolver) Stream(clk *disk.Clock, w *container.Writer) *StreamResolver {
	return &StreamResolver{r: r, ih: r.index.Handle(clk), w: w}
}

// prefetch pulls a sealed, uncached container's metadata into the LPC. The
// metadata read — the charged part — happens outside the resolver mutex;
// the mutex only covers the cache probe and the insert. Two streams racing
// on the same container may both charge a prefetch (one insert wins), the
// same way two real controllers would both issue the read; the single-stream
// decision sequence is unchanged.
func (sr *StreamResolver) prefetch(cid uint32, stats *BackupStats) {
	r := sr.r
	r.mu.Lock()
	cached := r.lpc.Contains(cid)
	r.mu.Unlock()
	if cached || !r.store.Sealed(cid) {
		return
	}
	stats.MetaPrefetches++
	telResolverPrefetches.Inc()
	metas := sr.w.ReadMeta(cid)
	r.mu.Lock()
	// Sealed again: a persist that failed since is purged under r.mu (drop).
	if !r.lpc.Contains(cid) && r.store.Sealed(cid) {
		r.insertLPC(cid, metas)
	}
	r.mu.Unlock()
}

// Resolution is one ResolveBatch outcome: whether the chunk is a duplicate
// and, if so, where its stored copy lives.
type Resolution struct {
	Loc chunk.Location
	Dup bool
}

// ResolveBatch decides, for a whole segment's chunks in order, which are
// duplicates and where their stored copies live, charging the DDFS lookup
// path to the stream: the current-location table (DeFrag's rewrites) and the
// locality-preserved cache are free RAM checks, a summary-vector negative is
// a new chunk, and anything else costs an on-disk index page read and, on a
// hit, a prefetch of the container's metadata into the cache, so that the
// duplicates that follow resolve from RAM. When a chunk must go to the index,
// every later chunk of the batch that is also headed there and hashes to the
// same bucket page is looked up in the same modeled page read: chunks of one
// segment that collide on index pages share its cost.
func (sr *StreamResolver) ResolveBatch(chunks []chunk.Chunk, stats *BackupStats) []Resolution {
	defer stageLookup.Observe(time.Now())
	r, ih := sr.r, sr.ih
	out := make([]Resolution, len(chunks))
	// memo holds index results fetched ahead of their turn by a same-bucket
	// group lookup. Entries are only consulted if the chunk still needs the
	// index when iteration reaches it (a prefetch in between may have made
	// it a free LPC hit, exactly as in the per-chunk path).
	var memo map[int]cindex.Result
	for i, c := range chunks {
		// RAM checks and the (map-reading) lookahead scan run under a short
		// mutex hold; the charged index page reads and metadata prefetches
		// below run outside it, so concurrent streams only serialize on the
		// in-RAM cache state, not on each other's modeled I/O.
		res, seen := memo[i]
		r.mu.Lock()
		if loc, ok := r.current[c.FP]; ok {
			stats.CacheHits++
			telResolverCacheHits.Inc()
			out[i] = Resolution{loc, true}
			r.mu.Unlock()
			continue
		}
		if ent, ok := r.lpcFPs[c.FP]; ok {
			stats.CacheHits++
			telResolverCacheHits.Inc()
			r.lpc.Get(ent.cid)
			out[i] = Resolution{ent.loc, true}
			r.mu.Unlock()
			continue
		}
		if !seen && !r.filter.MayContain(c.FP) {
			telResolverBloomNeg.Inc()
			r.mu.Unlock()
			continue // definitely new
		}
		var group []int
		if !seen {
			// Same-bucket lookahead: gather the later chunks of this batch
			// that would also reach the index and live on this bucket page.
			b := ih.Bucket(c.FP)
			group = append(group, i)
			for k := i + 1; k < len(chunks); k++ {
				if _, done := memo[k]; done {
					continue
				}
				ck := chunks[k]
				if ih.Bucket(ck.FP) != b {
					continue
				}
				if _, ok := r.current[ck.FP]; ok {
					continue
				}
				if _, ok := r.lpcFPs[ck.FP]; ok {
					continue
				}
				if !r.filter.MayContain(ck.FP) {
					continue
				}
				group = append(group, k)
			}
		}
		r.mu.Unlock()
		stats.IndexLookups++
		telResolverLookups.Inc()
		if !seen {
			fps := make([]chunk.Fingerprint, len(group))
			for gi, k := range group {
				fps[gi] = chunks[k].FP
			}
			batch := ih.LookupBatch(fps) // charged, outside the mutex
			if memo == nil {
				memo = make(map[int]cindex.Result, len(chunks))
			}
			for gi, k := range group {
				memo[k] = batch[gi]
			}
			res = memo[i]
		}
		if !res.Found {
			continue // Bloom false positive → new
		}
		out[i] = Resolution{res.Loc, true}
		sr.prefetch(res.Loc.Container, stats)
	}
	return out
}

func (r *Resolver) insertLPC(cid uint32, metas []container.Meta) {
	r.lpc.Put(cid, metas)
	for _, m := range metas {
		r.lpcFPs[m.FP] = lpcEntry{
			loc: chunk.Location{Container: cid, Segment: m.Segment, Offset: m.Offset, Size: m.Size},
			cid: cid,
		}
	}
}

// RegisterNew records a newly written chunk in the index and summary vector,
// with index writes charged to the stream.
func (sr *StreamResolver) RegisterNew(fp chunk.Fingerprint, loc chunk.Location) {
	sr.ih.Insert(fp, loc)
	sr.r.filter.Add(fp)
}

// Repoint updates the index to a chunk's newest copy (the DeFrag rewrite
// path) so future generations dedupe against the linearized placement. Index
// writes are charged to the stream.
func (sr *StreamResolver) Repoint(fp chunk.Fingerprint, loc chunk.Location) {
	sr.ih.Update(fp, loc)
	sr.r.mu.Lock()
	sr.r.current[fp] = loc
	sr.r.mu.Unlock()
}

// AdoptIndex rebuilds the chunk index and summary vector from the container
// store's directory — the reopen path for durable backends. No simulated
// time is charged: a reopen recovers on-disk index state that already
// exists; it does not perform new index writes. Containers are walked in ID
// order, so when a fingerprint appears in several containers (a DeFrag
// rewrite), the latest — authoritative — copy wins. It returns the highest
// on-disk segment ID seen, letting engines resume their segment sequence
// without colliding with recovered segments.
func (r *Resolver) AdoptIndex() (maxSegment uint64) {
	for id := 0; id < r.store.Slots(); id++ {
		cid := uint32(id)
		if !r.store.Sealed(cid) {
			continue
		}
		for _, m := range r.store.PeekMeta(cid) {
			r.index.Load(m.FP, chunk.Location{Container: cid, Segment: m.Segment, Offset: m.Offset, Size: m.Size})
			r.filter.Add(m.FP)
			if m.Segment > maxSegment {
				maxSegment = m.Segment
			}
		}
	}
	return maxSegment
}

// DropFromIndex removes every index mapping that points into container cid
// (chargeless; repair calls it immediately before quarantining cid, while
// the container's metadata is still readable) and returns how many mappings
// were dropped. The current-location table is purged of the container too.
func (r *Resolver) DropFromIndex(cid uint32) int { return r.drop(cid, r.store.PeekMeta(cid)) }

// drop is DropFromIndex over metas, cid's entries, for a container that may
// never be sealed (container.Store.OnLost).
func (r *Resolver) drop(cid uint32, metas []container.Meta) int {
	dropped := 0
	for _, m := range metas {
		if loc, ok := r.index.Peek(m.FP); ok && loc.Container == cid {
			if r.index.Delete(m.FP) {
				dropped++
			}
		}
	}
	r.mu.Lock()
	r.lpc.Remove(cid) // OnEvict clears the container's lpcFPs entries
	for fp, loc := range r.current {
		if loc.Container == cid {
			delete(r.current, fp)
		}
	}
	r.mu.Unlock()
	return dropped
}

// FlushIndex flushes buffered index writes (end of stream), charged to the
// stream.
func (sr *StreamResolver) FlushIndex() { sr.ih.Flush() }

// Writer returns the container writer this stream resolver is bound to.
func (sr *StreamResolver) Writer() *container.Writer { return sr.w }

// MightContain is the Bloom filter's verdict for fp: false means the chunk
// is definitely new. The check is RAM-resident and charges nothing — it is
// what lets a spilled stream classify chunks without touching the on-disk
// index (see engine.FilterConfig).
func (sr *StreamResolver) MightContain(fp chunk.Fingerprint) bool {
	return sr.r.filter.MayContain(fp)
}

// Index exposes the underlying chunk index.
func (r *Resolver) Index() *cindex.Index { return r.index }
