package container

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/lru"
	"repro/internal/telemetry"
)

// errLoadPanic is what single-flight waiters (and future acquirers, until a
// retry succeeds) observe when a loader panicked instead of returning: the
// wedged entry is dropped and failed rather than left forever un-ready.
var errLoadPanic = errors.New("container: data cache load panicked")

// Telemetry of the shared sealed-container data cache. These are distinct
// from the per-restore cache counters (restore_cache_*): the shared cache
// sits below every restore stream of one store, so its hit rate is what
// decides how often N concurrent restores of sibling generations touch the
// physical backend at all.
var (
	telSharedHits = telemetry.NewCounter("restore_shared_cache_hits_total",
		"shared container data cache hits (container bytes served without a backend read)")
	telSharedMisses = telemetry.NewCounter("restore_shared_cache_misses_total",
		"shared container data cache misses (backend reads issued)")
	telSharedEvictions = telemetry.NewCounter("restore_shared_cache_evictions_total",
		"containers evicted from the shared data cache to stay under the byte budget")
	telSharedWaits = telemetry.NewCounter("restore_shared_cache_waits_total",
		"single-flight waits: acquisitions that blocked on another stream's in-flight load of the same container")
	telSharedBytes = telemetry.NewGauge("restore_shared_cache_bytes",
		"resident bytes in the shared container data cache")
)

// DataCache is a byte-budgeted, single-flight, ref-counted cache of sealed
// container data sections, shared by every reader of one Store. It exists
// for the dedupd multi-tenant restore case: sibling generations of one
// tenant share most of their containers, so N concurrent restores hitting
// the same hot container should cost one backend read, not N.
//
//   - single-flight: concurrent acquisitions of a loading container block on
//     the loader's completion instead of issuing duplicate backend reads;
//   - ref-counted: acquired entries are pinned (unevictable) until every
//     holder releases them, so the budget can never tear bytes out from
//     under an active restore's prefetch window;
//   - byte-budgeted: unpinned entries are evicted in LRU order whenever
//     resident bytes exceed the budget. Pinned bytes may transiently exceed
//     it — the budget bounds retention, not concurrency.
//
// The cache holds bytes only. Simulated-clock charges (Eq. 1 seeks and
// transfers) are made by Store.AccountDataRange, never by Store.Fetch, the
// one path the bytes come through (ReadDataRange calls both), so attaching,
// resizing, or dropping a DataCache never changes any simulated timing —
// pinned by TestDataCacheDoesNotChangeSimulatedTime.
type DataCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	live   map[uint32]*dcEntry
	idle   *lru.Cache[uint32, *dcEntry] // refs==0 entries, in recency order

	hits, misses, evictions, waits uint64
}

// dcEntry is one container's residency. ready is closed when the load
// completes (data or err set, never both); refs counts pins — the loader,
// waiters, and outstanding release handles.
type dcEntry struct {
	data  []byte
	err   error
	ready chan struct{}
	refs  int
	gone  bool // removed from live (failed load or eviction race)
}

// NewDataCache creates a cache retaining at most budgetBytes of container
// data. Panics if budgetBytes <= 0 (a zero budget means "no cache" and is
// handled by the caller keeping a nil *DataCache).
func NewDataCache(budgetBytes int64) *DataCache {
	if budgetBytes <= 0 {
		panic("container: non-positive data cache budget")
	}
	return &DataCache{
		budget: budgetBytes,
		live:   make(map[uint32]*dcEntry),
		idle:   lru.New[uint32, *dcEntry](math.MaxInt32),
	}
}

// Budget returns the configured byte budget.
func (c *DataCache) Budget() int64 { return c.budget }

// DataCacheStats is a point-in-time snapshot of cache behaviour.
type DataCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Waits counts single-flight waits: acquisitions that found the
	// container already loading and blocked instead of re-reading it.
	Waits  uint64 `json:"waits"`
	Bytes  int64  `json:"bytes"`
	Budget int64  `json:"budget"`
	// Entries is current residency; Pinned of those are held (refs > 0) by
	// in-flight acquisitions or prefetch windows and cannot be evicted. A
	// Pinned count that never returns to zero between restores is a pin
	// leak.
	Entries int `json:"entries"`
	Pinned  int `json:"pinned"`
}

// Stats returns cumulative counters and current residency.
func (c *DataCache) Stats() DataCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	pinned := 0
	for _, e := range c.live {
		if e.refs > 0 {
			pinned++
		}
	}
	return DataCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Waits: c.waits,
		Bytes: c.bytes, Budget: c.budget, Entries: len(c.live), Pinned: pinned,
	}
}

// AcquireRange returns the data sections of ids (one container, or an extent
// the caller has validated as on-disk-adjacent) under one combined pin, which
// release drops; the slices stay valid after it (readers must treat them as
// immutable). Missing containers are loaded with a single load call covering
// the whole extent — one backend range read, exactly as the uncached path —
// while containers another stream is already loading are waited on, never
// re-read: two streams racing over the same extent cost one physical read. A
// load error is returned to every waiter and the entries are dropped, so the
// next acquisition retries.
func (c *DataCache) AcquireRange(ctx context.Context, ids []uint32, load func() ([][]byte, error)) ([][]byte, func(), error) {
	type slot struct {
		e     *dcEntry
		owned bool // this call is responsible for loading it
	}
	slots := make([]slot, len(ids))
	var nOwned int
	c.mu.Lock()
	for i, id := range ids {
		if e, ok := c.live[id]; ok {
			c.pinLocked(id, e)
			slots[i] = slot{e: e}
			continue
		}
		e := &dcEntry{ready: make(chan struct{}), refs: 1}
		c.live[id] = e
		c.misses++
		telSharedMisses.Inc()
		slots[i] = slot{e: e, owned: true}
		nOwned++
	}
	c.mu.Unlock()

	release := func() {
		for i := range slots {
			c.release(ids[i], slots[i].e)
		}
	}
	fail := func(err error) ([][]byte, func(), error) {
		release()
		return nil, nil, err
	}

	// A panicking load must not leave the owned entries forever un-ready —
	// fail and drop them during unwinding (waiters and future acquirers get
	// errLoadPanic), then let the panic propagate.
	loadReturned := nOwned == 0
	defer func() {
		if loadReturned {
			return
		}
		c.mu.Lock()
		for i := range slots {
			if !slots[i].owned {
				continue
			}
			e := slots[i].e
			e.err = errLoadPanic
			e.gone = true
			delete(c.live, ids[i])
			close(e.ready)
		}
		c.mu.Unlock()
	}()

	if nOwned > 0 {
		// The extent read fetches every id (a strict subset of an adjacent
		// run need not itself be adjacent); only the owned slots install.
		datas, err := load()
		loadReturned = true
		c.mu.Lock()
		for i := range slots {
			if !slots[i].owned {
				continue
			}
			e := slots[i].e
			if err != nil {
				e.err = err
				e.gone = true
				delete(c.live, ids[i])
			} else {
				e.data = datas[i]
				c.bytes += int64(len(datas[i]))
			}
			close(e.ready)
		}
		if err == nil {
			c.evictLocked()
			telSharedBytes.Set(float64(c.bytes))
		}
		c.mu.Unlock()
		if err != nil {
			return fail(err)
		}
	}

	out := make([][]byte, len(ids))
	for i := range slots {
		e := slots[i].e
		if !slots[i].owned {
			// Prefer ready: if the load already completed, deliver the data
			// even under a cancelled ctx rather than letting the two-way
			// select fail spuriously at random.
			select {
			case <-e.ready:
			default:
				select {
				case <-e.ready:
				case <-ctx.Done():
					return fail(ctx.Err())
				}
			}
			if e.err != nil {
				return fail(e.err)
			}
		}
		out[i] = e.data
	}
	return out, release, nil
}

// pinLocked increments an existing entry's refcount, pulling it off the idle
// list if this is the first pin, and counts the access. Caller holds mu.
func (c *DataCache) pinLocked(id uint32, e *dcEntry) {
	if e.refs == 0 {
		c.idle.Remove(id)
	}
	e.refs++
	select {
	case <-e.ready:
		c.hits++
		telSharedHits.Inc()
	default:
		c.waits++
		telSharedWaits.Inc()
	}
}

// Invalidate discards container id's residency, if any. A pinned entry is
// marked gone instead of freed: holders keep their (immutable) bytes and
// the final release discards the entry rather than re-idling it. The store
// calls this when a container is dropped or quarantined, so the cache never
// serves bytes for an id the directory no longer seals. A still-loading
// entry is left alone — its load will fail against the vanished container
// and the error path already drops it.
func (c *DataCache) Invalidate(id uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.live[id]
	if !ok {
		return
	}
	select {
	case <-e.ready:
	default:
		return
	}
	if e.refs == 0 {
		c.idle.Remove(id)
	}
	e.gone = true
	delete(c.live, id)
	c.bytes -= int64(len(e.data))
	telSharedBytes.Set(float64(c.bytes))
}

// release drops one pin; the last release makes the entry evictable.
func (c *DataCache) release(id uint32, e *dcEntry) {
	c.mu.Lock()
	e.refs--
	if e.refs == 0 && !e.gone && e.err == nil {
		c.idle.Put(id, e)
		c.evictLocked()
		telSharedBytes.Set(float64(c.bytes))
	}
	c.mu.Unlock()
}

// evictLocked pops idle entries in LRU order until resident bytes fit the
// budget. Caller holds mu.
func (c *DataCache) evictLocked() {
	for c.bytes > c.budget {
		id, e, ok := c.idle.RemoveOldest()
		if !ok {
			return // everything else is pinned; budget is transiently exceeded
		}
		e.gone = true
		delete(c.live, id)
		c.bytes -= int64(len(e.data))
		c.evictions++
		telSharedEvictions.Inc()
	}
}
