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
//     an in-memory store, a durable directory, or a fault-injecting wrapper
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
	"context"
	"fmt"
	"sync"
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
	// the barrier channel closed when it lands (see beginSeal/awaitSeal).
	pending map[uint32]chan struct{}

	serialW *Writer // the writer on the store's own clock, created lazily

	// stager, when non-nil, is the file backend underneath be: writers hand it
	// the fill of their open containers as it accumulates (see Writer.stage).
	stager *blockstore.File

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
	s := &Store{cfg: cfg, dev: dev, be: be}
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

// Backend returns the physical byte store.
func (s *Store) Backend() blockstore.Backend { return s.be }

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
	return id
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
// (awaitSeal) until the bytes land. If the persist ultimately fails, the
// container is unpublished (a directory hole, like a quarantine) and the
// error surfaces at the writer's next Flush/Finish, aborting its backup
// exactly as a synchronous seal failure would have.
func (s *Store) beginSeal(ctx context.Context, info Info, data []byte, staged <-chan struct{}) chan sealResult {
	s.mu.Lock()
	s.sealed[info.ID] = info
	s.sealedOK[info.ID] = true
	s.nSealed++
	s.liveBytes[info.ID] = info.DataFill
	if s.pending == nil {
		s.pending = make(map[uint32]chan struct{})
	}
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

// awaitSeal blocks until container id's in-flight backend persist (if any)
// has landed — the read-side barrier matching beginSeal.
func (s *Store) awaitSeal(ctx context.Context, id uint32) error {
	s.mu.Lock()
	ch := s.pending[id]
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
		if err := s.awaitSeal(ctx, id); err != nil {
			return err
		}
		if !s.Sealed(id) {
			continue
		}
		datas, err := s.Fetch(ctx, []uint32{id})
		if err != nil {
			return err
		}
		if err := dst.Seal(ctx, toBackendInfo(*s.info(id)), datas[0]); err != nil {
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
		if err := s.awaitSeal(ctx, id); err != nil {
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
// bytes are removed, and its extent goes back unless something was reserved
// behind it meanwhile.
func (w *Writer) abandon() {
	w.hasOpen = false
	w.unstage()
	w.dev.ResizeLast(w.start+w.extent(), w.start)
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
// (blockstore.ErrCorrupt). Zero-filled on metadata-only backends.
//
// A reader's blockstore.Lender passes to the backend. A section that comes
// back in the buffer lent for it with ranges is packed (blockstore.Backend),
// and is checked against their sum.
func (s *Store) Fetch(ctx context.Context, ids []uint32) ([][]byte, error) {
	if len(ids) > 1 {
		s.rangeSpan(ids) // assert adjacency exactly like the charged path
	}
	for _, id := range ids {
		if err := s.awaitSeal(ctx, id); err != nil {
			return nil, err
		}
	}
	var packed sync.Map // the sum of the ranges each buffer was lent with, by its first byte
	if l := blockstore.LenderFrom(ctx); l != nil {
		ctx = blockstore.WithLender(ctx, func(id uint32, n int64) ([]byte, []blockstore.Range) {
			buf, want := l(id, n)
			if want != nil && len(buf) > 0 {
				sum := int64(0)
				for _, r := range want {
					sum += r.Len
				}
				packed.Store(&buf[0], sum)
			}
			return buf, want
		})
	}
	t0 := time.Now()
	out, err := s.be.ReadDataRange(ctx, ids)
	stageContainerRead.Observe(t0)
	if err != nil {
		return nil, err
	}
	if len(out) != len(ids) {
		return nil, fmt.Errorf("container: backend returned %d sections for %d containers", len(out), len(ids))
	}
	for i, id := range ids {
		want := s.info(id).DataFill
		if len(out[i]) > 0 {
			if sum, ok := packed.Load(&out[i][0]); ok {
				want = sum.(int64)
			}
		}
		if int64(len(out[i])) != want {
			return nil, blockstore.Corruptf("container %d torn: data section %d bytes, expected %d",
				id, len(out[i]), want)
		}
	}
	return out, nil
}

// ReadDataRange reads the data sections of the given on-disk-adjacent
// containers (or of one container) as one sequential extent — one seek plus
// a single combined transfer charged to the store's clock — and returns each
// container's data section in order.
func (s *Store) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	s.AccountDataRange(ids, nil)
	return s.Fetch(ctx, ids)
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

// LiveBytes returns the data bytes of container id not yet superseded
// (checker/maintenance bookkeeping; 0 for unsealed holes).
func (s *Store) LiveBytes(id uint32) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= len(s.sealed) || !s.sealedOK[id] {
		return 0
	}
	return s.liveBytes[id]
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

// DeadBytes returns the total superseded bytes across sealed containers —
// the reclaimable garbage a compaction pass would free.
func (s *Store) DeadBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dead int64
	for i := range s.sealed {
		if s.sealedOK[i] {
			dead += s.sealed[i].DataFill - s.liveBytes[i]
		}
	}
	return dead
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
