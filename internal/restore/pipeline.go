package restore

import (
	"context"
	"io"
	"runtime"
	"sync"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/fanout"
	"repro/internal/telemetry"
)

// Telemetry of the pipelined restore path: extent coalescing (the seeks Eq. 1
// no longer pays) and the backlog ahead of the decode pool.
var (
	telCoalescedReads = telemetry.NewCounter("restore_coalesced_reads_total",
		"multi-container sequential extent reads issued by the restore pipeline")
	telCoalescedContainers = telemetry.NewCounter("restore_coalesced_containers_total",
		"container fetches folded into a preceding coalesced extent read (seeks saved)")
	telReadBytes = telemetry.NewCounter("restore_backend_read_bytes_total",
		"bytes of container data sections restores asked for and held: the ranges their refs lie in, packed, where the backend reads only those, whole sections otherwise (read amplification = this over restore_bytes_total)")
	telSectionsReused = telemetry.NewCounter("restore_sections_reused_total",
		"container sections read into a slab this restore or an earlier one had used before, instead of a new one")
	telDecodeQueueDepth = telemetry.NewHistogram("restore_decode_queue_depth",
		"verify/decode batches queued ahead of the decode worker pool when a batch is submitted",
		telemetry.CountBuckets)
)

// PipelineConfig parameterizes RunPipelined.
type PipelineConfig struct {
	// CacheContainers is the restore cache capacity in containers; under
	// PolicyFAA, the assembly window in containers' worth of stream bytes.
	CacheContainers int
	// Policy selects the schedule: LRU or OPT eviction, or forward assembly.
	Policy CachePolicy
	// Workers is the number of simulated read lanes, and nothing else: it
	// decides how extent reads are charged to the Eq. 1 clock, never how the
	// bytes are fetched (one fetcher goroutine, one extent ahead of the
	// assembler, whatever the value). 1 charges each extent to the store
	// clock just before the first chunk cut from it is written — the order a
	// serial reader pays in. Workers > 1 models that many concurrent read
	// streams on the simulated array with per-lane clocks (the round's duration
	// is the slowest lane), consistent with the multi-stream ingest model.
	Workers int
	// Coalesce merges schedule-consecutive fetches of disk-adjacent
	// containers into single sequential extent reads: k containers (at most
	// maxCoalesce) for one seek plus a combined transfer.
	Coalesce bool
	// Verify recomputes chunk fingerprints (requires a data-storing device).
	Verify bool
}

// DefaultConfig returns the restore shape of the paper's figures: an
// 8-container LRU cache read by one simulated lane, uncoalesced, unverified.
func DefaultConfig() PipelineConfig {
	return PipelineConfig{CacheContainers: 8, Policy: PolicyLRU, Workers: 1}
}

// RunPipelined restores recipe from store, writing reconstructed bytes to w
// (pass nil to measure without materializing). It is the only restore loop:
// the recipe is first compiled into a fetch schedule (which container to
// read before which ref, the last ref each read serves, which fetches
// coalesce into one sequential extent), then executed by one assembler with
// one fetcher goroutine materializing the next extent while the current one
// is assembled. Simulated time is charged apart from the fetching: with
// Workers == 1 each extent read lands on the store's clock just before the
// first chunk cut from it is written — the order a serial reader pays in;
// with Workers > 1 extent reads are charged up front to per-lane clocks in
// deterministic schedule order (earliest-free lane first) and Stats.Duration
// is the slowest lane.
//
// SHA-256 verification and the writes to w run on the decode pool, a
// fanout.Pool of GOMAXPROCS workers whose one consumer writes in stream
// order, overlapping container fetches; at GOMAXPROCS one the pool runs them
// inline on the assembler. Restored bytes, simulated time and every Stats
// field are bit-identical either way; decode_test.go pins that at GOMAXPROCS
// 1, 2 and 4.
//
// With one lane and Coalesce off, Stats and the device counters are
// bit-identical to the serial reference loops the tests keep: Run for
// PolicyLRU (TestSerialPipelinedMatchesRun), RunFAA for PolicyFAA
// (TestFAAPlanMatchesReference).
func RunPipelined(ctx context.Context, store *container.Store, recipe *chunk.Recipe, cfg PipelineConfig, w io.Writer) (Stats, error) {
	ctx, span := telemetry.StartSpan(ctx, "restore.pipeline")
	defer span.End()
	var sink Sink
	if w != nil {
		sink = func(_ int, data []byte) error {
			_, err := w.Write(data)
			return err
		}
	}
	stats := Stats{Label: recipe.Label, Fragments: recipe.Fragments()}
	master := store.Device().Clock()
	start := master.Now()
	as := &assembly{store: store, cfg: cfg, refs: recipe.Refs, sink: sink, stats: &stats, restore: true}
	if err := as.execute(ctx); err != nil {
		return stats, err
	}
	stats.Duration = master.Now() - start
	telRestoreBytes.Add(stats.Bytes)
	telRestoreChunks.Add(stats.Chunks)
	span.SetSim(stats.Duration)
	return stats, nil
}

// Sink takes a reconstructed stream one chunk at a time, in recipe order: the
// index of its ref and its bytes, which are the sink's only during the call.
// An error stops the stream there.
type Sink func(i int, data []byte) error

// Emit runs refs through RunPipelined's executor — the same plan, fetcher,
// section set and decode pool — and hands each chunk to sink, verified when
// cfg.Verify is set. Its reads are charged on one lane, whatever
// cfg.Workers says, to clk's view of the store device (nil: the store's
// clock), each just before the first chunk cut from it reaches sink. It is
// the executor for callers that are not restores, the maintenance merge's
// copy-forward: it opens no span and moves no restore_* series.
func Emit(ctx context.Context, store *container.Store, refs []chunk.Ref, cfg PipelineConfig, clk *disk.Clock, sink Sink) error {
	cfg.Workers = 1
	as := &assembly{store: store, cfg: cfg, refs: refs, clk: clk, sink: sink, stats: &Stats{}}
	return as.execute(ctx)
}

// execute compiles as.refs into as.cfg's schedule and runs the assembler, its
// fetcher and its decode pool over it, returning once all three have stopped.
func (as *assembly) execute(ctx context.Context) error {
	cfg, store, stats := &as.cfg, as.store, as.stats
	cfg.CacheContainers, cfg.Workers = max(cfg.CacheContainers, 1), max(cfg.Workers, 1)
	if err := checkVerify(store, cfg.Verify); err != nil {
		return err
	}
	var pspan *telemetry.Span
	if as.restore {
		_, pspan = telemetry.StartSpan(ctx, "restore.plan")
	}
	plan, err := buildPlan(store, as.refs, cfg.CacheContainers, cfg.Policy, cfg.Coalesce)
	pspan.End()
	if err != nil {
		return err
	}
	stats.ContainerReads = int64(len(plan.fetches))
	stats.ExtentReads = int64(len(plan.extents))
	stats.CoalescedContainers = stats.ContainerReads - stats.ExtentReads
	if as.restore {
		telFragments.Observe(float64(stats.Fragments))
		telContainerReads.Add(stats.ContainerReads)
		telRestoreCacheHits.Add(int64(len(as.refs)) - stats.ContainerReads)
		telRestoreCacheMisses.Add(stats.ContainerReads)
		telRestoreCacheEvictions.Add(plan.evictions)
		telCoalescedContainers.Add(stats.CoalescedContainers)
		for i := range plan.extents {
			if len(plan.extents[i].ids) > 1 {
				telCoalescedReads.Inc()
			}
		}
	}

	// The plan's cache holds each section from its fetch to its last use, and
	// two extents are in flight: the one taken and the one read behind it.
	as.plan = plan
	as.resident = make(map[uint32]held, cfg.CacheContainers)
	as.sections = newSectionSet(store.Config().DataCap, cfg.CacheContainers+2*plan.widest)
	defer as.sections.release() // after the fetcher and the decode pool have exited
	as.startDecode(runtime.GOMAXPROCS(0))
	if cfg.Workers > 1 {
		// Several lanes: every extent is charged to the earliest-free lane in
		// deterministic schedule order before any byte moves. One lane is
		// charged by the decode pool's consumer as it goes (see emit).
		chargeLanes(store, plan, cfg.Workers)
	}
	runErr := as.run(ctx)
	// A decode/write error happened at an earlier stream position than any
	// fetch error (fetches fail at the ref being assembled; the decode pool
	// trails it), so it wins — exactly the ref at which a serial restore
	// would have stopped.
	if err := as.finishDecode(); err != nil {
		runErr = err
	}
	if as.restore {
		telReadBytes.Add(stats.ReadBytes)
		telSectionsReused.Add(as.sections.reused) // fetcher and decode pool have exited
	}
	return runErr
}

// chargeLanes assigns each extent read to the lane that frees earliest
// (ties to the lowest lane) and charges seek + combined transfer through a
// per-lane view of the store device. Charging happens sequentially in
// schedule order, so head movement, device stats, and every lane clock are
// deterministic regardless of fetcher goroutine interleaving. The master
// clock advances to the slowest lane's finish time — the same
// slowest-lane-of-the-round model the concurrent ingest scheduler uses.
func chargeLanes(store *container.Store, plan *restorePlan, workers int) {
	master := store.Device().Clock()
	start := master.Now()
	lanes := make([]disk.Clock, workers)
	for i := range lanes {
		lanes[i].Advance(start)
	}
	for ei := range plan.extents {
		l := 0
		for k := 1; k < workers; k++ {
			if lanes[k].Now() < lanes[l].Now() {
				l = k
			}
		}
		store.AccountDataRange(plan.extents[ei].ids, &lanes[l])
	}
	latest := start
	for i := range lanes {
		if t := lanes[i].Now(); t > latest {
			latest = t
		}
	}
	if d := latest - master.Now(); d > 0 {
		master.Advance(d)
	}
}

// assembly is the serial consumer of the fetch schedule: it walks the
// recipe, holds each fetched section from its fetch to the last ref it
// serves, and emits (optionally verifying) the reconstructed stream.
type assembly struct {
	store   *container.Store
	cfg     PipelineConfig
	plan    *restorePlan
	refs    []chunk.Ref
	clk     *disk.Clock // one-lane reads are charged to its view of the device
	sink    Sink        // nil: count the chunks, write nothing
	stats   *Stats      // Bytes and Chunks are the decode pool's consumer's
	restore bool        // a restore, which the restore_* series count; Emit's is not

	resident map[uint32]held // the sections a ref still to come is cut from, by container

	// sections holds the buffers file-backed sections are read into. A
	// section leaves resident by retire, never by a bare delete.
	sections *sectionSet
	retired  int       // sections retire handed to the decode pool
	wants    sync.Once // plan.buildWants, at the first loan a backend asks for

	decode *fanout.Pool[*decodeBatch] // verifies and writes out the batches (decode.go)
	cur    *decodeBatch               // the batch being filled
}

// fetchedExtent is what the fetcher hands the assembler for one extent: the
// data sections of its containers, or the error that stopped it.
type fetchedExtent struct {
	datas [][]byte
	err   error
}

// run drives the assembler over the recipe while a fetcher goroutine
// materializes the schedule's extents, in order and uncharged, one ahead:
// the channel between them is unbuffered, so the fetcher sits in its send
// holding extent k+1 while the assembler works through extent k, and the
// bytes held ahead of use never exceed one extent. With one simulated
// lane the extent read rides on the job of the first chunk cut from it and is
// charged by the decode pool's consumer just before that chunk is written —
// the order a serial reader would pay in, and the one a sink that charges
// writes of its own to the same clock needs.
// Containers of a coalesced extent that install later wait in a staging
// buffer bounded by maxCoalesce. run returns only after the fetcher has
// exited, however early the assembler stopped. A retired section goes back
// only once written, so a loan that finds no room waits for those retired
// before the assembler last took an extent rather than draw a slab
// (sectionSet.owe).
func (as *assembly) run(ctx context.Context) error {
	fetched := make(chan fetchedExtent)
	stop := make(chan struct{})
	fetcherDone := make(chan struct{})
	go func() {
		defer close(fetcherDone)
		for ei := range as.plan.extents {
			e := &as.plan.extents[ei]
			fctx := blockstore.WithLender(ctx, func(id uint32, n int64) ([]byte, []blockstore.Range) {
				as.wants.Do(func() { as.plan.buildWants(as.store, as.refs) })
				if f := as.plan.fetchOf(e, id); f != nil && f.want != nil {
					return as.sections.lend(f.packed), f.want
				}
				return as.sections.lend(n), nil
			})
			datas, err := as.store.Fetch(fctx, e.ids)
			as.sections.settle(datas)
			select {
			case fetched <- fetchedExtent{datas: datas, err: err}:
			case <-stop:
				return
			}
			if err != nil {
				return // the assembler stops at this extent
			}
		}
	}()
	defer func() {
		close(stop)
		<-fetcherDone
	}()

	staged := make(map[uint32][]byte)
	for i := range as.refs {
		ref := &as.refs[i]
		id := ref.Loc.Container
		fx := as.plan.servedBy[i]
		f := &as.plan.fetches[fx]
		var charge []uint32
		if f.needAt == i {
			e := &as.plan.extents[f.extent]
			if int(fx) == e.lo {
				if as.cfg.Workers == 1 {
					charge = e.ids
				}
				as.sections.owe(as.retired)
				res := <-fetched
				if res.err != nil {
					return res.err
				}
				for k, cid := range e.ids {
					staged[cid] = res.datas[k]
					as.stats.ReadBytes += int64(len(res.datas[k]))
				}
			}
			data, ok := staged[id]
			if !ok {
				panic("restore: planned fetch was not staged by its extent")
			}
			delete(staged, id)
			h := held{data: data}
			if int64(len(data)) < as.store.DataFill(id) {
				h.cut = f
			}
			as.resident[id] = h
		} else {
			as.stats.CacheHits++
		}
		if !as.push(i, ref, as.piece(id, ref), charge) || f.last == i && !as.retire(id) {
			return nil // the decode pool failed; finishDecode surfaces its error
		}
	}
	return nil
}

// held is a resident section; cut is the fetch that packed it, nil when it
// was read whole. A section shorter than the container's fill is packed
// (container.Store.Fetch lets through no other short one).
type held struct {
	data []byte
	cut  *fetchOp
}

// retire lets go of container id's section once the last ref its fetch
// serves has been pushed. That chunk and earlier ones may still view it from
// inside the decode pool, so a section of the restore's own rides on the
// current batch, which goes out now — a loan may be waiting for it
// (sectionSet.owe) — and goes back to its set once that batch is emitted
// (recycle). It reports false once the decode pool has failed.
func (as *assembly) retire(id uint32) bool {
	data := as.resident[id].data
	delete(as.resident, id)
	if !as.sections.owns(data) {
		return true // a shared view: the collector's
	}
	as.retired++
	as.batch().retired = data
	return as.submit()
}

// piece returns the bytes of ref out of the resident section of id.
func (as *assembly) piece(id uint32, ref *chunk.Ref) []byte {
	h, ok := as.resident[id]
	if !ok {
		panic("restore: referenced container is not resident")
	}
	if h.cut != nil {
		return h.cut.cut(h.data, ref.Loc.Offset-as.store.DataStart(id), ref.Size)
	}
	return as.store.Extract(h.data, ref.Loc)
}
