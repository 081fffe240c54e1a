// Package container implements the stream-informed container log that backs
// every dedup engine in this repository (the layout DDFS calls "stream
// informed segment layout"): new unique chunks are buffered into a
// fixed-capacity open container and flushed sequentially, so chunks that
// arrive together are stored together.
//
// On-disk layout of one container:
//
//	[ metadata section: MetaCap bytes ][ data section: <= DataCap bytes ]
//
// The metadata section (chunk fingerprints, sizes, segment IDs) is what
// DDFS's locality-preserved cache prefetches: one seek pulls in descriptors
// for every chunk that was written near a duplicate, which is exactly the
// spatial locality the paper studies.
//
// Since the blockstore refactor the store separates two concerns that used
// to be fused inside disk.Device:
//
//   - the simulated device charges *time* (Eq. 1 seeks and transfers) for
//     every container operation, exactly as before;
//   - a blockstore.Backend owns the *bytes*: sealed containers are handed to
//     it on Flush and fetched back on reads, so the same engine can run over
//     an in-memory store, a durable directory, or a wrapper over either
//     without its timing changing at all.
//
// Writing goes through a Writer. Each keeps its one open container inside a
// fixed-size extent reserved when the container opens (allocated under the
// device mutex), assigns chunk offsets privately, and charges its seal I/O
// when the container seals. Writers therefore only contend on the brief
// extent/ID allocation, not on chunk writes. There are two flavors:
//
//   - SerialWriter is the store's one writer on the store's own clock. At
//     seal its extent shrinks to what the container filled whenever nothing
//     was reserved behind it meanwhile, so a lone writer lays containers out
//     back to back — the classic single-stream layout.
//   - NewWriter(clk) is a per-stream writer for concurrent ingest, charging
//     the stream's own clock; its containers keep their whole extent.
//
// Container IDs are allocated when a writer opens its container, so the
// shadow directory stays dense; a slot reports Sealed only once flushed
// (and stops doing so if fsck quarantines the container).
package container

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/disk"
	"repro/internal/telemetry"
)

// Per-stage wall clocks of the container layer (the always-on layer; see
// telemetry/stage.go). "seal" is the in-RAM work of closing a container
// (device accounting, directory Info assembly, metadata copy);
// "backend_write" is the blockstore persist of the sealed container and
// "backend_stage" the part of it done ahead, while the container filled (the
// two add up to the write cost); "seal_wait" is the time a stream's Finish
// spent blocked on its own last persist;
// "container_read" is a backend data-section fetch on the restore path.
var (
	stageSeal          = telemetry.Stage("seal")
	stageBackendWrite  = telemetry.Stage("backend_write")
	stageBackendStage  = telemetry.Stage("backend_stage")
	stageSealWait      = telemetry.Stage("seal_wait")
	stageContainerRead = telemetry.Stage("container_read")
)

// Live telemetry of container-log activity across all stores in the
// process. Meta reads are LPC prefetches (ingest path); data reads are
// restore/compaction container fetches.
var (
	telSealed = telemetry.NewCounter("container_sealed_total",
		"containers sealed (flushed to the backend)")
	telWrittenBytes = telemetry.NewCounter("container_written_bytes_total",
		"chunk data bytes written into containers")
	telMetaReads = telemetry.NewCounter("container_meta_reads_total",
		"container metadata-section reads (locality-preserved cache prefetches)")
	telDataReads = telemetry.NewCounter("container_data_reads_total",
		"container data-section reads (restore and compaction fetches)")
	telDeadBytes = telemetry.NewCounter("container_dead_bytes_total",
		"bytes superseded inside sealed containers (garbage left by rewrites)")
	telRangedReads = telemetry.NewCounter("container_ranged_reads_total",
		"coalesced multi-container sequential data reads (restore extent fetches)")
	telQuarantined = telemetry.NewCounter("container_quarantined_total",
		"containers quarantined by repair")
	telDropped = telemetry.NewCounter("container_dropped_total",
		"containers dropped after a merge reclaimed them")
)

// Config sizes the container geometry.
type Config struct {
	DataCap   int64 // data section capacity in bytes (default 4 MiB)
	MaxChunks int   // maximum chunks per container (bounds the metadata section)
}

// DefaultConfig returns the DDFS-style geometry: 4 MiB containers.
func DefaultConfig() Config {
	return Config{DataCap: 4 << 20, MaxChunks: 2048}
}

// metaEntrySize is the on-disk size of one metadata entry:
// fingerprint (32) + size (4) + segment id (8) = 44 bytes.
const metaEntrySize = 44

// MetaCap returns the on-disk size of the metadata section.
func (c Config) MetaCap() int64 { return int64(c.MaxChunks) * metaEntrySize }

func (c Config) validate() error {
	if c.DataCap <= 0 || c.MaxChunks <= 0 {
		return fmt.Errorf("container: non-positive geometry %+v", c)
	}
	return nil
}

// Meta describes one chunk stored in a container. It is what a metadata
// read returns (and what the locality-preserved cache holds).
type Meta struct {
	FP      chunk.Fingerprint
	Size    uint32
	Segment uint64 // on-disk segment the chunk was written as part of
	Offset  int64  // absolute device offset of the chunk data
}

// Info is the shadow directory entry for one sealed container.
type Info struct {
	ID       uint32
	Start    int64 // device offset of the metadata section
	DataFill int64 // bytes of chunk data in the data section
	End      int64 // device offset one past the container's extent
	Entries  []Meta
}

// DataStart returns the device offset of the container's data section.
func (i *Info) DataStart(cfg Config) int64 { return i.Start + cfg.MetaCap() }

// Store is the container log over one simulated device and one physical
// backend. All methods are safe for concurrent use; per-stream writing goes
// through Writer.
type Store struct {
	cfg Config
	dev *disk.Device
	be  blockstore.Backend

	mu       sync.Mutex
	sealed   []Info // shadow directory, dense by ID (placeholder until sealedOK)
	sealedOK []bool
	nSealed  int
	// liveBytes tracks, per container, the bytes still referenced by the
	// newest index mappings; the DeFrag rewrite path decrements it to report
	// container utilization (garbage from superseded copies).
	liveBytes []int64
	// pending maps container IDs whose backend persist is still in flight to
	// the barrier channel closed when it lands (see beginSeal); settling each
	// container that is open or persisting to one closed when it is durable or
	// never will be (AwaitSealed). Both are awaited through await.
	pending, settling map[uint32]chan struct{}
	lost              func(id uint32, entries []Meta) // see OnLost
	// pins counts, per container, the ingests in flight that hold it (Pins).
	pins map[uint32]int32

	serialW *Writer // the writer on the store's own clock, created lazily

	// stager, when non-nil, is the file backend underneath be: writers hand it
	// the fill of their open containers as it accumulates (see Writer.stage).
	stager *blockstore.File

	// lends is set when the backend keeps sealed sections in memory and
	// stores data (LendFromMemory); lent holds the sections Lend has read until
	// their container is dropped or quarantined (unlend). Lend refuses a
	// persist in flight, so a container a failed one unpublishes is not lent.
	lends  bool
	lentMu sync.RWMutex
	lent   map[uint32]*lentSection

	// spare is one DataCap-sized fill buffer kept between streams: a writer's
	// first container fills it, and Finish hands it back, so the buffer is
	// the store's and outlives the per-backup writers. Only one is kept: a
	// stream cycles two (one filling, one persisting), but every idle buffer
	// is 4 MiB of live heap that the GC's pacing doubles, which on a store
	// whose bytes are on disk is a tenth of the process.
	spare []byte
}

// NewStore creates a container store writing to dev, with bytes held by an
// in-memory backend that mirrors dev's storesData setting. The store must
// be the only writer of dev.
func NewStore(dev *disk.Device, cfg Config) (*Store, error) {
	return NewStoreWithBackend(dev, cfg, blockstore.NewSim(dev.StoresData()))
}

// NewStoreWithBackend creates a container store charging time to dev and
// persisting sealed containers to be. The device is used purely as the
// timing model: real bytes live only in the backend.
func NewStoreWithBackend(dev *disk.Device, cfg Config, be blockstore.Backend) (*Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if be == nil {
		return nil, fmt.Errorf("container: nil backend")
	}
	s := &Store{cfg: cfg, dev: dev, be: be, pending: map[uint32]chan struct{}{}, settling: map[uint32]chan struct{}{}, pins: map[uint32]int32{}, lent: map[uint32]*lentSection{}}
	s.stager, _ = be.(*blockstore.File) // under wrappers it has to be named: StageTo
	return s, nil
}

// StageTo names the file backend be ends in, so that open containers stage
// their fill there around whatever wraps it (blockstore.File.Stage). Call it
// before the first write.
func (s *Store) StageTo(f *blockstore.File) { s.stager = f }

// Config returns the store geometry.
func (s *Store) Config() Config { return s.cfg }

// Device returns the underlying device (read-only use by restore paths).
func (s *Store) Device() *disk.Device { return s.dev }

// StoresData reports whether the backend retains real chunk bytes.
func (s *Store) StoresData() bool { return s.be.StoresData() }

// NumContainers returns the count of sealed containers.
func (s *Store) NumContainers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nSealed
}

// Slots returns the size of the container ID space: every ID ever
// allocated, sealed or not. Iterate [0,Slots()) with Sealed(id) to walk the
// directory when quarantine may have punched holes in it.
func (s *Store) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed)
}

// allocID reserves the next dense container ID with a placeholder directory
// slot; seal fills it in when the container flushes.
func (s *Store) allocID() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := uint32(len(s.sealed))
	s.sealed = append(s.sealed, Info{ID: id})
	s.sealedOK = append(s.sealedOK, false)
	s.liveBytes = append(s.liveBytes, 0)
	s.settling[id] = make(chan struct{})
	return id
}

// OnLost has f told of the entries of each container that will never be
// sealed (its persist failed, or its writer gave it up), so the index forgets
// bytes that never landed. Set it before the first write.
func (s *Store) OnLost(f func(id uint32, entries []Meta)) { s.lost = f }

// settle ends container id's open-or-persisting state: durable if Sealed(id)
// is true by now, else lost with entries.
func (s *Store) settle(id uint32, entries []Meta) {
	s.mu.Lock()
	ch, durable := s.settling[id], s.sealedOK[id]
	delete(s.settling, id)
	s.mu.Unlock()
	if !durable && s.lost != nil && len(entries) > 0 {
		s.lost(id, entries)
	}
	close(ch)
}

// AwaitSealed returns once every container refs name is durable, or with an
// error naming the first that never will be. A stream may deduplicate against
// a container another stream still fills or persists: the engines call this
// before a recipe is acknowledged.
func (s *Store) AwaitSealed(ctx context.Context, refs []chunk.Ref) error {
	for i := range refs {
		id := refs[i].Loc.Container
		if i > 0 && id == refs[i-1].Loc.Container {
			continue
		}
		if err := s.await(ctx, s.settling, id); err != nil {
			return err
		}
		if !s.Sealed(id) {
			return fmt.Errorf("container: %d, which the backup names, was never persisted", id)
		}
	}
	return nil
}

// Pins is one ingest's hold on the containers its recipe names so far:
// settle tracking follows a container from open until it is durable, and a
// hold carries it on, with the containers the ingest deduplicated against,
// until the recipe is counted live or the ingest aborts. The maintenance
// merge picks no held container as a victim. A hold is per container, not per
// copy: cheaper on the ingest path, and only more conservative. Safe for
// concurrent use; a nil *Pins holds nothing.
type Pins struct {
	s    *Store
	mu   sync.Mutex
	held map[uint32]struct{}
}

// NewPins returns an empty hold on s's containers.
func (s *Store) NewPins() *Pins { return &Pins{s: s, held: map[uint32]struct{}{}} }

// Hold pins every container refs name that p does not hold yet.
func (p *Pins) Hold(refs []chunk.Ref) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range refs {
		id := refs[i].Loc.Container
		if i > 0 && id == refs[i-1].Loc.Container {
			continue
		}
		if _, ok := p.held[id]; ok {
			continue
		}
		p.held[id] = struct{}{}
		p.s.mu.Lock()
		p.s.pins[id]++
		p.s.mu.Unlock()
	}
}

// Release lets go of every container p holds.
func (p *Pins) Release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.s.mu.Lock()
	for id := range p.held {
		if p.s.pins[id]--; p.s.pins[id] == 0 {
			delete(p.s.pins, id)
		}
	}
	p.s.mu.Unlock()
	clear(p.held)
}

// Pinned reports whether an ingest in flight holds container id.
func (s *Store) Pinned(id uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pins[id] > 0
}

// PinnedIDs returns the containers ingests in flight hold, in no order.
func (s *Store) PinnedIDs() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint32, 0, len(s.pins))
	for id := range s.pins {
		ids = append(ids, id)
	}
	return ids
}

type pinsKey struct{}

// WithPins returns ctx carrying p: the ingest run under it holds what its
// recipe names in p, segment by segment (PinsFrom).
func WithPins(ctx context.Context, p *Pins) context.Context {
	return context.WithValue(ctx, pinsKey{}, p)
}

// PinsFrom returns the hold ctx carries, or nil.
func PinsFrom(ctx context.Context) *Pins {
	p, _ := ctx.Value(pinsKey{}).(*Pins)
	return p
}

// getBuf hands out an empty fill buffer of full capacity, so Writer.Write
// never grows it: the spare if it is in, else a new one.
func (s *Store) getBuf() []byte {
	s.mu.Lock()
	b := s.spare
	s.spare = nil
	s.mu.Unlock()
	if b == nil {
		b = make([]byte, 0, s.cfg.DataCap)
	}
	return b
}

// putBuf takes a fill buffer back; the caller must be done with its bytes.
// It becomes the spare unless there is one already.
func (s *Store) putBuf(b []byte) {
	if b == nil {
		return
	}
	s.mu.Lock()
	if s.spare == nil {
		s.spare = b[:0]
	}
	s.mu.Unlock()
}

// sealResult is the outcome of one background backend persist; data rides
// along so the writer can recycle its buffer once the backend (which must
// not retain the slice) is done with it.
type sealResult struct {
	err  error
	data []byte
}

// beginSeal publishes a flushed container into the shadow directory and
// kicks off the backend persist in the background, returning a channel that
// delivers the persist outcome. Publishing immediately keeps Sealed/ReadMeta
// semantics identical to the old synchronous seal — dedup decisions depend
// only on the RAM directory — while the backend write happens off the
// ingest hot path; data-section readers block on the per-container barrier
// (await) until the bytes land. If the persist ultimately fails, the
// container is unpublished (a directory hole, like a quarantine), the index
// forgets it (OnLost), and the error surfaces at the writer's next
// Flush/Finish, aborting its backup exactly as a synchronous seal failure
// would have, and any other that names it in AwaitSealed.
func (s *Store) beginSeal(ctx context.Context, info Info, data []byte, staged <-chan struct{}) chan sealResult {
	s.mu.Lock()
	s.sealed[info.ID] = info
	s.sealedOK[info.ID] = true
	s.nSealed++
	s.liveBytes[info.ID] = info.DataFill
	barrier := make(chan struct{})
	s.pending[info.ID] = barrier
	s.mu.Unlock()

	done := make(chan sealResult, 1)
	// The persist is the store's obligation, not the request's: it is
	// detached from the caller's cancellation so a drained request cannot
	// tear out a container that other streams' dedup decisions already saw.
	pctx := context.WithoutCancel(ctx)
	go func() {
		if staged != nil {
			<-staged // the pieces of data still on their way to the file
		}
		t0 := time.Now()
		err := s.be.Seal(pctx, toBackendInfo(info), data)
		stageBackendWrite.Observe(t0)
		if err != nil && s.stager != nil {
			s.stager.Unstage(info.ID) // a Seal that failed above the file never took them
		}
		s.mu.Lock()
		if err != nil {
			// Unpublish. The Info struct itself is left in place (readers
			// may hold pointers from info()); sealedOK is what gates access.
			s.sealedOK[info.ID] = false
			s.nSealed--
			s.liveBytes[info.ID] = 0
		}
		delete(s.pending, info.ID)
		close(barrier)
		s.mu.Unlock()
		s.settle(info.ID, info.Entries)
		if err != nil {
			done <- sealResult{err: fmt.Errorf("container: seal %d: %w", info.ID, err), data: data}
			return
		}
		telSealed.Inc()
		telWrittenBytes.Add(info.DataFill)
		done <- sealResult{data: data}
	}()
	return done
}

// await blocks until barrier (s.pending, the read side of beginSeal, or
// s.settling) no longer holds container id.
func (s *Store) await(ctx context.Context, barrier map[uint32]chan struct{}, id uint32) error {
	s.mu.Lock()
	ch := barrier[id]
	s.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitSeals blocks until every in-flight backend persist has landed. Store
// close and full-store verification (fsck) call it so they observe a byte
// store that matches the directory.
func (s *Store) WaitSeals() {
	for {
		s.mu.Lock()
		var ch chan struct{}
		for _, c := range s.pending {
			ch = c
			break
		}
		s.mu.Unlock()
		if ch == nil {
			return
		}
		<-ch
	}
}

// Adopt loads the backend's sealed containers into an empty store — the
// reopen path for durable backends. The device frontier advances (without
// charging time) past the highest adopted extent so new containers never
// overlap old ones. Quarantined containers leave unsealed holes in the ID
// space.
func (s *Store) Adopt(ctx context.Context) error {
	infos, err := s.be.List(ctx)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sealed) != 0 {
		return fmt.Errorf("container: Adopt on a non-empty store")
	}
	var maxEnd int64
	for _, bi := range infos {
		id := int(bi.ID)
		for len(s.sealed) <= id {
			s.sealed = append(s.sealed, Info{ID: uint32(len(s.sealed))})
			s.sealedOK = append(s.sealedOK, false)
			s.liveBytes = append(s.liveBytes, 0)
		}
		info := fromBackendInfo(bi)
		s.sealed[id] = info
		s.sealedOK[id] = true
		s.nSealed++
		s.liveBytes[id] = info.DataFill
		if info.End > maxEnd {
			maxEnd = info.End
		}
	}
	if gap := maxEnd - s.dev.Size(); gap > 0 {
		s.dev.ReserveExtent(gap)
	}
	return nil
}

// CopyTo seals every sealed container into dst under its own directory entry
// — ID, extent and chunk offsets verbatim, holes staying holes — so that a
// store which Adopts dst places every chunk where this one has it. No
// simulated time is charged. The caller keeps containers from being dropped
// meanwhile; ones sealed after the walk began may or may not be copied.
func (s *Store) CopyTo(ctx context.Context, dst blockstore.Backend) error {
	for id := uint32(0); int(id) < s.Slots(); id++ {
		// A persist still in flight may yet fail and unpublish its container.
		if err := s.await(ctx, s.pending, id); err != nil {
			return err
		}
		if !s.Sealed(id) {
			continue
		}
		datas, err := s.Fetch(ctx, []uint32{id})
		if err != nil {
			return err
		}
		err = blockstore.Guard(func() error { return dst.Seal(ctx, toBackendInfo(*s.info(id)), datas[0]) })
		blockstore.Release(datas[0])
		if err != nil {
			return fmt.Errorf("container: copying %d: %w", id, err)
		}
	}
	return nil
}

// Quarantine removes a damaged container from the live directory and asks
// the backend to move its bytes aside. The ID becomes an unsealed hole:
// Sealed(id) turns false and reads of it panic, so callers must first drop
// every index/recipe reference (fsck -repair does).
func (s *Store) Quarantine(ctx context.Context, id uint32, reason string) error {
	q, ok := s.be.(blockstore.Quarantiner)
	if !ok {
		return blockstore.ErrNoQuarantine
	}
	s.mu.Lock()
	if int(id) >= len(s.sealed) || !s.sealedOK[id] {
		s.mu.Unlock()
		return fmt.Errorf("container: quarantine: id %d not sealed", id)
	}
	s.mu.Unlock()
	if err := q.Quarantine(ctx, id, reason); err != nil {
		return err
	}
	s.mu.Lock()
	s.sealedOK[id] = false
	s.nSealed--
	s.liveBytes[id] = 0
	s.sealed[id] = Info{ID: id}
	s.mu.Unlock()
	s.unlend(id)
	telQuarantined.Inc()
	return nil
}

// Drop removes a batch of merged-away containers from the live directory
// and asks the backend to reclaim their bytes atomically (one durable
// intent record on the file backend — see blockstore.Dropper). The IDs
// become unsealed holes exactly like quarantined ones: Sealed turns false
// and reads panic, so the caller must first have repointed every index
// entry and recipe reference at the surviving copies. The maintenance merge
// (epochs and Compact alike) is the only caller.
func (s *Store) Drop(ctx context.Context, ids []uint32, reason string) error {
	if len(ids) == 0 {
		return nil
	}
	d, ok := s.be.(blockstore.Dropper)
	if !ok {
		return blockstore.ErrNoDrop
	}
	s.mu.Lock()
	for _, id := range ids {
		if int(id) >= len(s.sealed) || !s.sealedOK[id] {
			s.mu.Unlock()
			return fmt.Errorf("container: drop: id %d not sealed", id)
		}
	}
	s.mu.Unlock()
	// Settle any in-flight persists of the victims so the backend sees them.
	for _, id := range ids {
		if err := s.await(ctx, s.pending, id); err != nil {
			return err
		}
	}
	if err := d.Drop(ctx, ids, reason); err != nil {
		return err
	}
	s.mu.Lock()
	for _, id := range ids {
		s.sealedOK[id] = false
		s.nSealed--
		s.liveBytes[id] = 0
		s.sealed[id] = Info{ID: id}
	}
	s.mu.Unlock()
	for _, id := range ids {
		s.unlend(id)
	}
	telDropped.Add(int64(len(ids)))
	return nil
}

func toBackendInfo(info Info) blockstore.ContainerInfo {
	out := blockstore.ContainerInfo{
		ID: info.ID, Start: info.Start, DataFill: info.DataFill, End: info.End,
		Entries: make([]blockstore.ChunkMeta, len(info.Entries)),
	}
	for i, m := range info.Entries {
		out.Entries[i] = blockstore.ChunkMeta{FP: m.FP, Size: m.Size, Segment: m.Segment, Offset: m.Offset}
	}
	return out
}

func fromBackendInfo(bi blockstore.ContainerInfo) Info {
	info := Info{
		ID: bi.ID, Start: bi.Start, DataFill: bi.DataFill, End: bi.End,
		Entries: make([]Meta, len(bi.Entries)),
	}
	for i, m := range bi.Entries {
		info.Entries[i] = Meta{FP: m.FP, Size: m.Size, Segment: m.Segment, Offset: m.Offset}
	}
	return info
}

// Writer buffers chunks into one open container at a time on behalf of a
// single backup stream. A Writer is not itself safe for concurrent use —
// concurrency comes from giving each stream its own Writer over the shared
// Store.
type Writer struct {
	s       *Store
	dev     *disk.Device // device view charging this stream's clock
	reserve bool         // containers keep their whole extent (per-stream writers)

	id      uint32
	start   int64
	fill    int64
	meta    []Meta
	data    []byte // buffered only when the backend stores data
	hasOpen bool

	// sealCh, when non-nil, is the in-flight backend persist launched by the
	// previous Flush (depth-1 pipelining: fill container N+1 while N's bytes
	// drain to the backend). spare holds the data buffer recycled from a
	// completed persist for the next open().
	sealCh chan sealResult
	spare  []byte

	// staged is how much of data has been handed to the store's stager, and
	// stageCh is closed when the last piece handed over has been written.
	staged  int
	stageCh chan struct{}
}

// stagePiece is the fill a writer lets gather before handing it to the file
// backend: enough that the goroutine and the write(2) are noise, little enough
// that a container's seal has almost nothing left to write.
const stagePiece = 512 << 10

// stage hands the next piece of the open container's fill to the file backend
// on a goroutine behind the piece before it. The fill buffer has its full
// capacity from the start (getBuf): the piece stays put while Write appends.
func (w *Writer) stage() {
	f, id, off, prev := w.s.stager, w.id, w.staged, w.stageCh
	piece, done := w.data[off:off+stagePiece], make(chan struct{})
	w.staged, w.stageCh = off+stagePiece, done
	go func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		t0 := time.Now()
		f.Stage(id, int64(off), piece)
		stageBackendStage.Observe(t0)
	}()
}

// unstage gives up what the open container has staged, once the pieces in
// flight have landed: none recreates the temp file or still reads the buffer.
func (w *Writer) unstage() {
	if w.stageCh != nil {
		<-w.stageCh
		w.s.stager.Unstage(w.id)
	}
}

// SerialWriter returns the store's one writer on the store's own clock. Its
// containers pack back to back as the single-stream layout always did. It is
// not safe for concurrent use: callers take turns.
func (s *Store) SerialWriter() *Writer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.serialW == nil {
		s.serialW = &Writer{s: s, dev: s.dev}
	}
	return s.serialW
}

// NewWriter returns a per-stream reserve-mode writer whose simulated I/O
// time is charged to clk (nil clk charges the store's own clock). Each open
// container occupies a pre-reserved MetaCap+DataCap extent, so concurrent
// writers never collide on offsets; the unused tail of a partially filled
// final container is the usual cost of fixed-size container slots.
func (s *Store) NewWriter(clk *disk.Clock) *Writer {
	return &Writer{s: s, dev: s.dev.View(clk), reserve: true}
}

// open starts a new container, allocating its ID and its device extent.
func (w *Writer) open() {
	w.id = w.s.allocID()
	w.start = w.dev.ReserveExtent(w.extent())
	w.fill = 0
	w.meta = w.meta[:0]
	w.staged, w.stageCh = 0, nil
	if w.s.StoresData() {
		if w.data == nil {
			// The previous buffer is riding with an in-flight persist;
			// reuse the one recycled from the persist before that, else
			// draw on the store.
			if w.data, w.spare = w.spare, nil; w.data == nil {
				w.data = w.s.getBuf()
			}
		}
		w.data = w.data[:0]
	}
	w.hasOpen = true
}

// waitSeal blocks until the writer's in-flight backend persist (if any)
// completes, reclaiming its data buffer for reuse and surfacing its error.
func (w *Writer) waitSeal() error {
	if w.sealCh == nil {
		return nil
	}
	res := <-w.sealCh
	w.sealCh = nil
	if res.data != nil {
		w.spare = res.data
	}
	return res.err
}

// Write appends one chunk to the writer's open container (opening or sealing
// containers as needed) and returns its permanent location. segID tags the
// chunk with the on-disk segment it belongs to. ctx bounds the backend seal
// triggered when a full container must flush.
func (w *Writer) Write(ctx context.Context, c chunk.Chunk, segID uint64) (chunk.Location, error) {
	if c.Size == 0 {
		panic("container: zero-size chunk")
	}
	if !w.hasOpen {
		w.open()
	}
	if w.fill+int64(c.Size) > w.s.cfg.DataCap || len(w.meta) >= w.s.cfg.MaxChunks {
		if err := w.Flush(ctx); err != nil {
			return chunk.Location{}, err
		}
		w.open()
	}
	off := w.start + w.s.cfg.MetaCap() + w.fill
	w.meta = append(w.meta, Meta{FP: c.FP, Size: c.Size, Segment: segID, Offset: off})
	if w.s.StoresData() {
		if c.Data != nil {
			w.data = append(w.data, c.Data...)
		} else {
			w.data = append(w.data, make([]byte, c.Size)...)
		}
		for w.s.stager != nil && len(w.data)-w.staged >= stagePiece {
			w.stage()
		}
	}
	w.fill += int64(c.Size)
	return chunk.Location{Container: w.id, Segment: segID, Offset: off, Size: c.Size}, nil
}

// extent is the device space a container is given when it opens.
func (w *Writer) extent() int64 { return w.s.cfg.MetaCap() + w.s.cfg.DataCap }

// abandon gives up the open container: its ID stays a hole, its staged
// bytes are removed, the index forgets what it placed (OnLost), and its
// extent goes back unless something was reserved behind it meanwhile.
func (w *Writer) abandon() {
	w.hasOpen = false
	w.unstage()
	w.dev.ResizeLast(w.start+w.extent(), w.start)
	w.s.settle(w.id, w.meta)
}

// Flush seals the open container: the device is charged for the metadata
// and data section writes, the container is published in the directory, and
// the backend persist is started in the background (at most one in flight
// per writer — Flush first waits out the previous persist, so a persist
// failure aborts the stream one container late at the latest). A writer
// with no open container (or an empty one) flushes to nothing. Write
// flushes automatically when a container fills; end-of-stream callers use
// Finish, which also drains the last persist.
func (w *Writer) Flush(ctx context.Context) error {
	if !w.hasOpen {
		return nil
	}
	if len(w.meta) == 0 {
		w.abandon()
		return nil
	}
	if err := w.waitSeal(); err != nil {
		w.abandon()
		return err
	}
	t0 := time.Now()
	end := w.start + w.extent()
	if packed := w.start + w.s.cfg.MetaCap() + w.fill; !w.reserve && w.dev.ResizeLast(end, packed) {
		// The serial writer's extent is still the last one: it ends where
		// the fill does (past the data section, for an oversized chunk).
		end = packed
	}
	// Seal in place inside the extent: metadata section padded to fixed
	// capacity so data offsets hold, then the data section, one contiguous
	// write run.
	w.dev.AccountWrite(w.start, w.s.cfg.MetaCap())
	w.dev.AccountWrite(w.start+w.s.cfg.MetaCap(), w.fill)
	info := Info{
		ID:       w.id,
		Start:    w.start,
		DataFill: w.fill,
		End:      end,
		Entries:  append([]Meta(nil), w.meta...),
	}
	w.hasOpen = false
	stageSeal.Observe(t0) // pre-seal close work only; the backend persist is "backend_write"
	w.sealCh = w.s.beginSeal(ctx, info, w.data, w.stageCh)
	w.data = nil // buffer now rides with the persist; open() falls back to spare
	return nil
}

// Finish seals the writer's open container and waits until every backend
// persist this writer started has landed — the end-of-stream barrier. After
// a nil return, all of the stream's containers are durable in the backend.
// Either way the writer holds no fill buffer afterwards: they go back to the
// store, which keeps one for the next writer.
func (w *Writer) Finish(ctx context.Context) error {
	err := w.Flush(ctx)
	if err == nil {
		t0 := time.Now()
		err = w.waitSeal()
		stageSealWait.Observe(t0)
	}
	w.putBufs()
	return err
}

func (w *Writer) putBufs() {
	w.s.putBuf(w.spare)
	w.s.putBuf(w.data) // an open container that stayed empty never sealed
	w.data, w.spare = nil, nil
}

// Discard ends a writer whose stream failed where sealing what it placed
// (Finish) is not wanted: the open container is given up, its ID a hole and
// its staged bytes removed; the persist in flight is waited out. A no-op
// after Finish.
func (w *Writer) Discard() {
	if w.hasOpen {
		w.abandon()
	}
	w.waitSeal() //nolint:errcheck // the stream has its error already
	w.putBufs()
}

// ReadMeta performs a metadata-section read of container id: it charges one
// disk access of MetaCap bytes to the writer's device view and returns the
// chunk descriptors. This is the operation behind DDFS's
// locality-preserved-cache prefetch.
func (w *Writer) ReadMeta(id uint32) []Meta {
	info := w.s.info(id)
	w.dev.AccountRead(info.Start, w.s.cfg.MetaCap())
	telMetaReads.Inc()
	return info.Entries
}

// PeekMeta returns container metadata without charging any disk time. It is
// simulation bookkeeping (used by ground-truth oracles and tests), never by
// an engine's timed path.
func (s *Store) PeekMeta(id uint32) []Meta { return s.info(id).Entries }

// DataFill returns the filled length of container id's data section without
// charging disk time (checker bookkeeping).
func (s *Store) DataFill(id uint32) int64 { return s.info(id).DataFill }

// DataStart returns the absolute device offset where container id's data
// section begins; chunk Meta.Offset values are absolute, so the valid range
// for container id is [DataStart, DataStart+DataFill).
func (s *Store) DataStart(id uint32) int64 { return s.info(id).DataStart(s.cfg) }

// Adjacent reports whether container b's data section can be picked up by
// extending a sequential read past container a's data section more cheaply
// than paying a separate seek: b must sit at or after a's data end, and
// transferring the intervening gap (b's metadata section plus any unused
// reserve-mode tail of a) must cost no more than one seek of the device
// model. This is the coalescing predicate of the restore pipeline — when it
// holds, k consecutive container fetches collapse into 1·T_seek plus one
// combined transfer in the Eq. 1 cost structure.
func (s *Store) Adjacent(a, b uint32) bool {
	ia, ib := s.info(a), s.info(b)
	gap := ib.DataStart(s.cfg) - (ia.DataStart(s.cfg) + ia.DataFill)
	if gap < 0 {
		return false
	}
	m := s.dev.Model()
	return m.ReadTime(gap) <= m.Seek
}

// rangeSpan returns the device span covering the data sections of ids,
// validating that each consecutive pair is Adjacent. Panics on a
// non-contiguous range — the restore planner only ever coalesces adjacent
// fetches, so a violation is a logic bug, never valid input.
func (s *Store) rangeSpan(ids []uint32) (off, n int64) {
	if len(ids) == 0 {
		panic("container: empty container range")
	}
	for i := 1; i < len(ids); i++ {
		if !s.Adjacent(ids[i-1], ids[i]) {
			panic(fmt.Sprintf("container: containers %d,%d not adjacent on device", ids[i-1], ids[i]))
		}
	}
	first, last := s.info(ids[0]), s.info(ids[len(ids)-1])
	off = first.DataStart(s.cfg)
	n = last.DataStart(s.cfg) + last.DataFill - off
	return off, n
}

// Fetch returns the data sections of ids — one container, or a run that is
// pairwise Adjacent in order — without charging disk time; callers charge it
// through AccountDataRange (or use ReadDataRange). It is the one way a sealed
// container's bytes are read: in-flight persists are awaited, and a section
// shorter than its directory fill is a torn write surfacing
// (blockstore.ErrCorrupt). Zero-filled on metadata-only backends. Each
// section is the caller's to hand to blockstore.Release once nothing reads
// it, and to read only inside blockstore.Guard (blockstore.Backend).
func (s *Store) Fetch(ctx context.Context, ids []uint32) ([][]byte, error) {
	if len(ids) > 1 {
		s.rangeSpan(ids) // assert adjacency exactly like the charged path
	}
	for _, id := range ids {
		if err := s.await(ctx, s.pending, id); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	out, err := s.be.ReadDataRange(ctx, ids)
	stageContainerRead.Observe(t0)
	if err != nil {
		return nil, err
	}
	if len(out) != len(ids) {
		err = fmt.Errorf("container: backend returned %d sections for %d containers", len(out), len(ids))
	} else {
		for i, id := range ids {
			if want := s.info(id).DataFill; int64(len(out[i])) != want {
				err = blockstore.Corruptf("container %d torn: data section %d bytes, expected %d", id, len(out[i]), want)
				break
			}
		}
	}
	if err != nil {
		for _, data := range out {
			blockstore.Release(data)
		}
		return nil, err
	}
	return out, nil
}

// ReadDataRange reads the data sections of the given on-disk-adjacent
// containers (or of one container) as one sequential extent — one seek plus
// a single combined transfer charged to the store's clock — and returns a
// copy of each container's data section, in order: the caller's to keep.
func (s *Store) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	s.AccountDataRange(ids, nil)
	sections, err := s.Fetch(ctx, ids)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(sections))
	err = blockstore.Guard(func() error {
		for i, data := range sections {
			out[i] = append([]byte(nil), data...)
		}
		return nil
	})
	for _, data := range sections {
		blockstore.Release(data)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AccountDataRange charges the sequential extent read of ids to clk's view
// of the store device (nil clk charges the store's own clock) without
// materializing data. One call is one discontiguous access: seek (if the
// head moved) plus the combined span transfer.
func (s *Store) AccountDataRange(ids []uint32, clk *disk.Clock) {
	off, n := s.rangeSpan(ids)
	s.dev.View(clk).AccountRead(off, n)
	telDataReads.Add(int64(len(ids)))
	if len(ids) > 1 {
		telRangedReads.Inc()
	}
}

// Lent is a stored chunk lent for comparison with a chunk being ingested: a
// read-only view of its bytes, read only inside blockstore.Guard, and the
// mark that they have been shown to hash to the fingerprint they are stored
// under. The zero Lent lends nothing.
type Lent struct {
	Data []byte
	mark *atomic.Bool
}

// Verified reports whether Data has been shown to hash to its fingerprint.
func (l Lent) Verified() bool { return l.mark != nil && l.mark.Load() }

// Verify marks Data as shown to hash to its fingerprint: the caller has
// seen bytes equal to Data hash to it. It reports whether the mark is new.
func (l Lent) Verify() bool { return l.mark.CompareAndSwap(false, true) }

// lentSection is a sealed section kept for Lend: the view the backend
// returned the first time, which every later comparison reads, whatever a
// later read would return, and one verified mark per entry.
type lentSection struct {
	data     []byte
	start    int64 // the device offset of data[0]
	entries  []Meta
	verified []atomic.Bool
}

// LendFromMemory tells s that its backend keeps sealed sections in process
// memory, under whatever wraps it, so that Lend hands them out at no cost.
// On a metadata-only backend it does nothing. Call it before the first write.
func (s *Store) LendFromMemory() { s.lends = s.be.StoresData() }

// Lends reports whether Lend can lend anything (LendFromMemory).
func (s *Store) Lends() bool { return s.lends }

// Lend returns the copy of fp stored at loc, to compare a chunk with, without
// charging simulated time: a view of its sealed section, the one read when
// the container was first lent. It lends nothing unless s lends from memory,
// the container's persist has landed (Lend never waits for one) and the entry
// at loc holds fp.
func (s *Store) Lend(fp chunk.Fingerprint, loc chunk.Location) (Lent, bool) {
	if !s.lends {
		return Lent{}, false
	}
	s.lentMu.RLock()
	ls := s.lent[loc.Container]
	s.lentMu.RUnlock()
	if ls == nil {
		if ls = s.lendSection(loc.Container); ls == nil {
			return Lent{}, false
		}
	}
	i, found := slices.BinarySearchFunc(ls.entries, loc.Offset, func(m Meta, off int64) int { return cmp.Compare(m.Offset, off) })
	if !found || ls.entries[i].FP != fp || ls.entries[i].Size != loc.Size {
		return Lent{}, false
	}
	rel := loc.Offset - ls.start
	return Lent{Data: ls.data[rel : rel+int64(loc.Size)], mark: &ls.verified[i]}, true
}

// lendSection reads container id's section for Lend and keeps it, or returns
// nil when the container is not sealed, its persist is in flight, or the
// read fails or comes back short. It holds lentMu throughout, so a container
// that stops being sealed is either refused here or unlent after. The read is
// of memory: it takes no caller's context.
func (s *Store) lendSection(id uint32) *lentSection {
	s.lentMu.Lock()
	defer s.lentMu.Unlock()
	if ls := s.lent[id]; ls != nil {
		return ls
	}
	s.mu.Lock()
	ok := int(id) < len(s.sealedOK) && s.sealedOK[id] && s.pending[id] == nil
	var info Info
	if ok {
		info = s.sealed[id]
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	data, err := s.be.ReadData(context.Background(), id)
	if err != nil || int64(len(data)) != info.DataFill {
		blockstore.Release(data)
		return nil
	}
	ls := &lentSection{data: data, start: info.DataStart(s.cfg), entries: info.Entries, verified: make([]atomic.Bool, len(info.Entries))}
	s.lent[id] = ls
	return ls
}

// unlend forgets container id's lent section, once id is no longer sealed.
func (s *Store) unlend(id uint32) {
	s.lentMu.Lock()
	ls := s.lent[id]
	delete(s.lent, id)
	s.lentMu.Unlock()
	if ls != nil {
		blockstore.Release(ls.data)
	}
}

// LentIDs returns the containers whose sections Lend keeps, in no order.
func (s *Store) LentIDs() []uint32 {
	s.lentMu.RLock()
	defer s.lentMu.RUnlock()
	ids := make([]uint32, 0, len(s.lent))
	for id := range s.lent {
		ids = append(ids, id)
	}
	return ids
}

// Extract returns chunk data for loc out of loc.Container's data section as
// Fetch or ReadDataRange returned it.
func (s *Store) Extract(data []byte, loc chunk.Location) []byte {
	info := s.info(loc.Container)
	rel := loc.Offset - info.DataStart(s.cfg)
	if rel < 0 || rel+int64(loc.Size) > int64(len(data)) {
		panic(fmt.Sprintf("container: location %v outside container %d data", loc, loc.Container))
	}
	return data[rel : rel+int64(loc.Size)]
}

// info returns the directory entry of a sealed container; the returned
// pointer references immutable post-seal state.
func (s *Store) info(id uint32) *Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.sealed) || !s.sealedOK[id] {
		panic(fmt.Sprintf("container: id %d not sealed (have %d)", id, s.nSealed))
	}
	return &s.sealed[id]
}

// Sealed reports whether container id has been sealed.
func (s *Store) Sealed(id uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(id) < len(s.sealedOK) && s.sealedOK[id]
}

// MarkDead records that n bytes in container id are superseded (a rewritten
// chunk's old copy). Utilization reporting uses this.
func (s *Store) MarkDead(id uint32, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) < len(s.liveBytes) && s.sealedOK[id] {
		s.liveBytes[id] -= n
		if s.liveBytes[id] < 0 {
			s.liveBytes[id] = 0
		}
		if n > 0 {
			telDeadBytes.Add(n)
		}
	}
}

// LiveFraction returns the live fraction of container id's data section —
// the per-container utilization the maintenance policies select victims by.
// Empty or unsealed containers report 1 (nothing reclaimable).
func (s *Store) LiveFraction(id uint32) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.sealed) || !s.sealedOK[id] || s.sealed[id].DataFill == 0 {
		return 1
	}
	return float64(s.liveBytes[id]) / float64(s.sealed[id].DataFill)
}

// Utilization returns the fraction of stored data bytes still live across
// all sealed containers (1.0 when nothing was superseded).
func (s *Store) Utilization() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var live, total int64
	for i := range s.sealed {
		if !s.sealedOK[i] {
			continue
		}
		live += s.liveBytes[i]
		total += s.sealed[i].DataFill
	}
	if total == 0 {
		return 1
	}
	return float64(live) / float64(total)
}

// StoredBytes returns the total data bytes across sealed containers
// (physical, post-dedup storage consumption, excluding metadata).
func (s *Store) StoredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for i := range s.sealed {
		if s.sealedOK[i] {
			n += s.sealed[i].DataFill
		}
	}
	return n
}
