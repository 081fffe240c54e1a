package restore

import (
	"context"
	"io"
	"runtime"

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
		"bytes of the whole container data sections restores fetched (read amplification = this over restore_bytes_total)")
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
	// Workers is ignored: every restore charges its extent reads to one lane,
	// in the order a serial reader pays.
	//
	// Deprecated: there is no lane count to set; the field stays only
	// because the perf rig still sets it.
	Workers int
	// Coalesce merges schedule-consecutive fetches of disk-adjacent
	// containers into single sequential extent reads: k containers (at most
	// maxCoalesce) for one seek plus a combined transfer.
	Coalesce bool
	// Verify recomputes chunk fingerprints (requires a data-storing device).
	Verify bool
}

// DefaultConfig returns the restore shape of the paper's figures: an
// 8-container LRU cache, uncoalesced, unverified.
func DefaultConfig() PipelineConfig {
	return PipelineConfig{CacheContainers: 8, Policy: PolicyLRU}
}

// RunPipelined restores recipe from store, writing reconstructed bytes to w
// (pass nil to measure without materializing). It is the only restore loop:
// the recipe is first compiled into a fetch schedule (which container to
// read before which ref, the last ref each read serves, which fetches
// coalesce into one sequential extent), then executed by one assembler with
// one fetcher goroutine materializing the next extent while the current one
// is assembled. Simulated time is charged apart from the fetching, on one
// lane: each extent read lands on the store's clock just before the first
// chunk cut from it is written — the order a serial reader pays in (Eq. 1).
//
// SHA-256 verification and the writes to w run on the decode pool, a
// fanout.Pool of GOMAXPROCS workers whose one consumer writes in stream
// order, overlapping container fetches; at GOMAXPROCS one the pool runs them
// inline on the assembler. Restored bytes, simulated time and every Stats
// field are bit-identical either way; decode_test.go pins that at GOMAXPROCS
// 1, 2 and 4.
//
// With Coalesce off, Stats and the device counters are bit-identical to the
// serial reference loops the tests keep: Run for PolicyLRU
// (TestSerialPipelinedMatchesRun), RunFAA for PolicyFAA
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
	as := &assembly{store: store, cfg: cfg, refs: recipe.Refs, Emission: Emission{Lane: master, Sink: sink}, stats: &stats, restore: true}
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

// Emission is where the executor's chunks go and its extent reads are
// charged, each just before the first chunk cut from it reaches Sink.
type Emission struct {
	Lane *disk.Clock // charged through its view of the store device; nil: no clock, head or device counter moves
	Sink Sink        // nil: count the chunks, write nothing
	// Mismatch, when set, is told the index of each chunk that fails Verify,
	// in place of Sink, and the stream goes on; unset, the first stops it.
	Mismatch func(i int)
}

// Emit runs refs through RunPipelined's executor — the same plan, fetcher
// and decode pool — and hands each chunk to e.Sink, verified when
// cfg.Verify is set, its reads charged to e.Lane. It is the executor for
// callers that are not restores, the maintenance merge's copy-forward and
// fsck's re-hash: it opens no span and moves no restore_* series.
func Emit(ctx context.Context, store *container.Store, refs []chunk.Ref, cfg PipelineConfig, e Emission) error {
	as := &assembly{store: store, cfg: cfg, refs: refs, Emission: e, stats: &Stats{}}
	return as.execute(ctx)
}

// execute compiles as.refs into as.cfg's schedule and runs the assembler, its
// fetcher and its decode pool over it, returning once all three have stopped.
func (as *assembly) execute(ctx context.Context) error {
	cfg, store, stats := &as.cfg, as.store, as.stats
	cfg.CacheContainers = max(cfg.CacheContainers, 1)
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

	as.plan = plan
	as.resident = make(map[uint32][]byte, cfg.CacheContainers)
	as.staged = make(map[uint32][]byte)
	as.startDecode(runtime.GOMAXPROCS(0))
	runErr := as.run(ctx)
	// A decode/write error happened at an earlier stream position than any
	// fetch error (fetches fail at the ref being assembled; the decode pool
	// trails it), so it wins — exactly the ref at which a serial restore
	// would have stopped.
	if err := as.finishDecode(); err != nil {
		runErr = err
	}
	// The fetcher and the decode pool have exited: nothing views what an
	// assembler that stopped early still held.
	for _, held := range []map[uint32][]byte{as.resident, as.staged} {
		for _, data := range held {
			blockstore.Release(data)
		}
	}
	if as.restore {
		telReadBytes.Add(stats.ReadBytes)
	}
	return runErr
}

// assembly is the serial consumer of the fetch schedule: it walks the
// recipe, holds each fetched section from its fetch to the last ref it
// serves, and emits (optionally verifying) the reconstructed stream.
type assembly struct {
	store *container.Store
	cfg   PipelineConfig
	plan  *restorePlan
	refs  []chunk.Ref
	Emission
	stats   *Stats // Bytes and Chunks are the decode pool's consumer's
	restore bool   // a restore, which the restore_* series count; Emit's is not

	// The sections a ref still to come is cut from, by container, and those
	// a coalesced extent read before their fetch installs them. A section
	// leaves resident by retire, never by a bare delete.
	resident map[uint32][]byte
	staged   map[uint32][]byte

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
// sections held ahead of use never exceed one extent. The extent read rides
// on the job of the first chunk cut from it and is charged by the decode
// pool's consumer just before that chunk is written —
// the order a serial reader would pay in, and the one a sink that charges
// writes of its own to the same clock needs.
// Containers of a coalesced extent that install later wait in staged,
// bounded by maxCoalesce. run returns only after the fetcher has exited,
// however early the assembler stopped; an extent the assembler never took is
// released by the fetcher, and what resident and staged still hold by
// execute.
func (as *assembly) run(ctx context.Context) error {
	fetched := make(chan fetchedExtent)
	stop := make(chan struct{})
	fetcherDone := make(chan struct{})
	go func() {
		defer close(fetcherDone)
		for ei := range as.plan.extents {
			datas, err := as.store.Fetch(ctx, as.plan.extents[ei].ids)
			select {
			case fetched <- fetchedExtent{datas: datas, err: err}:
			case <-stop:
				for _, data := range datas {
					blockstore.Release(data)
				}
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

	for i := range as.refs {
		ref := &as.refs[i]
		id := ref.Loc.Container
		fx := as.plan.servedBy[i]
		f := &as.plan.fetches[fx]
		var charge []uint32
		if f.needAt == i {
			e := &as.plan.extents[f.extent]
			if int(fx) == e.lo {
				if as.Lane != nil {
					charge = e.ids
				}
				res := <-fetched
				if res.err != nil {
					return res.err
				}
				for k, cid := range e.ids {
					as.staged[cid] = res.datas[k]
					as.stats.ReadBytes += int64(len(res.datas[k]))
				}
			}
			data, ok := as.staged[id]
			if !ok {
				panic("restore: planned fetch was not staged by its extent")
			}
			delete(as.staged, id)
			as.resident[id] = data
		} else {
			as.stats.CacheHits++
		}
		if !as.push(i, ref, as.piece(id, ref), charge) || f.last == i && !as.retire(id) {
			return nil // the decode pool failed; finishDecode surfaces its error
		}
	}
	return nil
}

// retire lets go of container id's section once the last ref its fetch
// serves has been pushed. That chunk and earlier ones may still view it from
// inside the decode pool, so a mapped section rides on the current batch,
// which goes out now, and is released once that batch is emitted (recycle):
// the mappings a restore holds stay those its cache and fetcher need. It
// reports false once the decode pool has failed.
func (as *assembly) retire(id uint32) bool {
	data := as.resident[id]
	delete(as.resident, id)
	if !blockstore.Mapped(data) {
		return true // the collector's
	}
	as.batch().retired = data
	return as.submit()
}

// piece returns the bytes of ref out of the resident section of id.
func (as *assembly) piece(id uint32, ref *chunk.Ref) []byte {
	data, ok := as.resident[id]
	if !ok {
		panic("restore: referenced container is not resident")
	}
	return as.store.Extract(data, ref.Loc)
}
