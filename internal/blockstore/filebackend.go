package blockstore

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// File is the durable directory-backed backend: containers.log (the container
// table, containerlog.go), containers/NNNNNN.data (a sealed container's data
// section, when StoresData) and quarantine/ (what fsck -repair moved aside). A
// seal's data file is written, fsync'd and renamed in, the directory fsync'd,
// and only then is the record that makes the container exist appended (seals
// in flight together share one append: commitSeal). Opening replays the log
// and removes the data files no record names.
type File struct {
	mu     sync.Mutex
	dir    string
	lock   *os.File // holds the flock on dir's lockName until Close
	table           // storesData is fixed by the log's header
	log    *RecordLog
	closed bool

	zero zeroView // what a metadata-only store reads

	// staged holds, per container still filling, the head of its data section
	// that Stage has already put into the temp file Seal will rename.
	staged map[uint32]*stagedSection

	// Group commit (see commitSeal): seal records enqueued while an append is
	// in flight ride out together on the next one.
	cohort     *sealCohort
	committing bool
	quiet      *sync.Cond // broadcast when commitSeal goes idle
}

// sealCohort is one group-commit batch: the seal records waiting on the same
// append, and the table entries to publish once it lands.
type sealCohort struct {
	buf   []byte
	infos []ContainerInfo
	done  chan struct{}
	err   error
}

const (
	containerDir = "containers"
	quarDir      = "quarantine"
	lockName     = "LOCK"
)

// errLocked is what flock returns when another open File holds the lock.
var errLocked = errors.New("locked")

// OpenFile opens (or initialises) a directory-backed store rooted at dir.
// When the directory already holds a container log, its storesData setting
// wins over the argument — the physical store's nature is fixed at creation.
// The File holds an exclusive lock on dir until Close: while it is open, a
// second OpenFile of dir, in this process or another, is refused before it
// replays or sweeps anything.
func OpenFile(dir string, storesData bool) (*File, error) {
	if err := refuseOldLayout(dir); err != nil {
		return nil, err
	}
	for _, sub := range []string{dir, filepath.Join(dir, containerDir), filepath.Join(dir, quarDir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flock(lock); err != nil {
		lock.Close() //nolint:errcheck // surfacing the lock error
		if errors.Is(err, errLocked) {
			return nil, fmt.Errorf("file backend: %s is already open (another process, or another store in this one, holds %s)", dir, lockName)
		}
		return nil, err
	}
	var t *table
	log, err := OpenRecordLog(filepath.Join(dir, logName), func(img []byte) (valid int64, err error) {
		t, valid, err = replayTable(img)
		return valid, err
	})
	if err != nil {
		lock.Close() //nolint:errcheck // surfacing the replay error
		return nil, fmt.Errorf("file backend: %w", err)
	}
	f := &File{dir: dir, lock: lock, table: *t, log: log, staged: make(map[uint32]*stagedSection)}
	f.quiet = sync.NewCond(&f.mu)
	err = f.sweep()
	if err == nil && !t.headed {
		f.storesData = storesData
		err = log.Append(appendHeader(nil, storesData))
	}
	if err != nil {
		log.Close()  //nolint:errcheck // surfacing the sweep or header error
		lock.Close() //nolint:errcheck // likewise
		return nil, err
	}
	return f, nil
}

// sweep removes what a crash left that nothing will read: a temp file in the
// root or containers/ — a write that never reached its rename, a container
// half-staged — and a data file the table does not name: a seal's, renamed in
// before the crash kept its record from the log, or a dropped container's.
func (f *File) sweep() error {
	for _, sub := range []string{f.dir, filepath.Join(f.dir, containerDir)} {
		ents, err := os.ReadDir(sub)
		if err != nil {
			return err
		}
		for _, e := range ents {
			num, data := strings.CutSuffix(e.Name(), ".data")
			id, perr := strconv.ParseUint(num, 10, 32)
			_, live := f.infos[uint32(id)]
			temp, _ := filepath.Match(".*.tmp*", e.Name())
			orphan := sub != f.dir && data && perr == nil && !live
			if !temp && !orphan {
				continue
			}
			if err := os.Remove(filepath.Join(sub, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *File) dataPath(id uint32) string {
	return filepath.Join(f.dir, containerDir, fmt.Sprintf("%06d.data", id))
}

func (f *File) Name() string     { return "file" }
func (f *File) StoresData() bool { return f.storesData }

// Dir returns the backend's root directory.
func (f *File) Dir() string { return f.dir }

// stagedSection is the head of one filling container's data section, already
// in the temp file its .data will be renamed from. The container's one writer
// orders Stage, Seal and Unstage of an id, so only the map is under f.mu.
type stagedSection struct {
	tmp atomicFile
	n   int64  // bytes in tmp: section bytes [0, n)
	crc uint32 // CRC32C of them
	bad bool   // a stage call failed or came out of order: tmp is not a prefix
}

var (
	telStagedBytes = telemetry.NewCounter("container_staged_bytes_total",
		"data-section bytes written to a container's file while it was still filling")
	telSealsStaged = telemetry.NewCounter("container_seals_staged_total",
		"seals that found a staged prefix, proved it and wrote only the rest")
	telRestagedError = telemetry.NewCounter(telemetry.Name("container_seals_restaged_total", "reason", "stage_error"),
		"seals that rejected their staged prefix and wrote the whole section, by reason")
	telRestagedShort    = telemetry.NewCounter(telemetry.Name("container_seals_restaged_total", "reason", "short_data"), "")
	telRestagedMismatch = telemetry.NewCounter(telemetry.Name("container_seals_restaged_total", "reason", "mismatch"), "")
)

// Stage puts p, bytes [off, off+len(p)) of the data section container id is
// still filling, into the file that section will be sealed as, so that Seal —
// still handed the whole section, and believing only that — has less left to
// write. Calls for one id come in offset order, one at a time, before its
// Seal; a piece that cannot be staged only means Seal writes everything. Not a
// Backend method: see Backend.
func (f *File) Stage(id uint32, off int64, p []byte) {
	f.mu.Lock()
	st, open := f.staged[id], f.storesData && !f.closed
	f.mu.Unlock()
	if !open {
		return
	}
	if st == nil {
		tmp, err := createAtomic(f.dataPath(id))
		if err != nil {
			return
		}
		st = &stagedSection{tmp: tmp}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			tmp.abort()
			return
		}
		f.staged[id] = st
		f.mu.Unlock()
	}
	if st.bad || off != st.n || st.tmp.write(off, p) != nil {
		st.bad = true
		return
	}
	st.n += int64(len(p))
	st.crc = crc32.Update(st.crc, castagnoli, p)
	telStagedBytes.Add(int64(len(p)))
}

// Unstage forgets what was staged for a container that will not be sealed
// (or whose Seal never got here) and removes its temp file.
func (f *File) Unstage(id uint32) {
	if st := f.takeStaged(id); st != nil {
		st.tmp.abort()
	}
}

func (f *File) takeStaged(id uint32) *stagedSection {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.staged[id]
	delete(f.staged, id)
	return st
}

func (f *File) Seal(ctx context.Context, info ContainerInfo, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return ErrClosed
	}
	// Container files are keyed by ID and each ID is sealed by exactly one
	// writer at a time, so concurrent seals of distinct containers write their
	// data files in parallel without holding the table lock.
	st := f.takeStaged(info.ID)
	if f.storesData {
		if err := f.sealData(st, info.ID, data); err != nil {
			return err
		}
	}
	maybeCrash(CrashSealData)
	rec, err := appendSeal(nil, info)
	if err != nil {
		return err
	}
	return f.commitSeal(rec, cloneInfo(info))
}

// sealData makes data the content of container id's data file. data is the
// truth and st a cache of its head: used if every piece was staged, data is at
// least that long (Fault's torn half is not) and starts with bytes of the same
// CRC32C — then only the rest is written. Otherwise the whole section is.
func (f *File) sealData(st *stagedSection, id uint32, data []byte) error {
	if st != nil {
		var reject *telemetry.Counter
		switch {
		case st.bad:
			reject = telRestagedError
		case st.n > int64(len(data)):
			reject = telRestagedShort
		case crc32.Checksum(data[:st.n], castagnoli) != st.crc:
			reject = telRestagedMismatch
		}
		if reject == nil {
			telSealsStaged.Inc()
			if err := st.tmp.write(st.n, data[st.n:]); err != nil {
				st.tmp.abort()
				return err
			}
			return st.tmp.commit(f.dataPath(id), 0o644)
		}
		reject.Inc()
		st.tmp.abort()
	}
	return WriteFileAtomic(f.dataPath(id), data, 0o644)
}

// commitSeal appends rec to the log with group commit: the first arrival
// becomes the leader and appends; records enqueued while that append is in
// flight accumulate into the next cohort, which the same leader pushes out
// with a single write + fdatasync. N concurrent seals thus pay ~1 fdatasync
// instead of N. The leader publishes every cohort member's table entry (under
// f.mu) before waking it, so at any quiescent point f.infos matches the
// durable log exactly — the invariant a checkpoint relies on.
func (f *File) commitSeal(rec []byte, info ContainerInfo) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if f.cohort == nil {
		f.cohort = &sealCohort{done: make(chan struct{})}
	}
	mine := f.cohort
	mine.buf = append(mine.buf, rec...)
	mine.infos = append(mine.infos, info)
	if f.committing {
		// An append is in flight; its leader will carry this cohort too.
		f.mu.Unlock()
		<-mine.done
		return mine.err
	}
	f.committing = true
	for c := mine; ; {
		f.cohort = nil
		f.mu.Unlock()
		c.err = f.log.Append(c.buf)
		f.mu.Lock()
		if c.err == nil {
			for _, ci := range c.infos {
				f.put(ci)
			}
		}
		close(c.done)
		if c = f.cohort; c == nil {
			f.committing = false
			f.quiet.Broadcast()
			f.mu.Unlock()
			return mine.err
		}
	}
}

// quiesceLocked waits until no group commit is in flight or queued. Caller
// holds f.mu.
func (f *File) quiesceLocked() {
	for f.committing || f.cohort != nil {
		f.quiet.Wait()
	}
}

func (f *File) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	info, ok := f.infos[id]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("file backend: container %d not sealed", id)
	}
	if !f.storesData {
		return f.zero.get(info.DataFill), nil
	}
	return f.readSection(ctx, id, info.DataFill)
}

// readSection reads container id's data file, which must hold exactly fill
// bytes — longer is as torn as shorter — into a buffer the ctx's lender
// offers (see Backend), else a new one. Checking the length first means a torn
// file never costs a loan. A ranged loan is packed: each range one pread, back
// to back from the buffer's start; anything else is one read of the whole file.
func (f *File) readSection(ctx context.Context, id uint32, fill int64) ([]byte, error) {
	fh, err := os.Open(f.dataPath(id))
	if err != nil {
		return nil, fmt.Errorf("file backend: container %d: %w", id, err)
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, fmt.Errorf("file backend: container %d: %w", id, err)
	}
	torn := func(have int64) error {
		return Corruptf("file backend: container %d torn: data section %d bytes, expected %d", id, have, fill)
	}
	if st.Size() != fill {
		return nil, torn(st.Size())
	}
	var data, buf []byte
	whole := [1]Range{{Off: 0, Len: fill}}
	ranges, wanted := whole[:], []Range(nil)
	if l := LenderFrom(ctx); l != nil {
		buf, wanted = l(id, fill)
	}
	if wanted == nil && int64(len(buf)) >= fill {
		data = buf[:fill]
	} else if wanted != nil && len(buf) > 0 {
		// All of them before the first read: a section is filled as asked or
		// not returned at all.
		end, sum := int64(0), int64(0)
		for _, r := range wanted {
			if r.Off < end || r.Len < 0 || r.Len > fill-r.Off {
				return nil, fmt.Errorf("file backend: container %d: lender wants [%d,+%d) after byte %d of a %d-byte section: ranges must be sorted, disjoint and inside it",
					id, r.Off, r.Len, end, fill)
			}
			end, sum = r.Off+r.Len, sum+r.Len
		}
		if int64(len(buf)) >= sum {
			data, ranges = buf[:sum], wanted
		}
	}
	if data == nil {
		data = make([]byte, fill)
	}
	at := int64(0)
	for _, r := range ranges {
		if n, err := fh.ReadAt(data[at:at+r.Len], r.Off); err != nil {
			if errors.Is(err, io.EOF) { // shrank since Stat
				return nil, torn(r.Off + int64(n))
			}
			return nil, fmt.Errorf("file backend: container %d: %w", id, err)
		}
		at += r.Len
	}
	return data, nil
}

func (f *File) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	return ReadDataRangeNaive(ctx, f, ids)
}

func (f *File) List(ctx context.Context) ([]ContainerInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	out := make([]ContainerInfo, 0, len(f.infos))
	for _, info := range f.infos {
		out = append(out, cloneInfo(info))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Sync waits for the seals in flight and checkpoints the container log now.
func (f *File) Sync(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.quiesceLocked()
	return f.checkpoint(true)
}

// checkpoint rewrites the log as the table if forced or due. Caller holds
// f.mu, quiesced.
func (f *File) checkpoint(force bool) error {
	if !force && !f.log.Due(f.live) {
		return nil
	}
	image, err := appendTable(nil, f.storesData, f.infos)
	if err == nil {
		_, err = f.log.Checkpoint(image)
	}
	return err
}

// checkpointAfter is checkpoint(false) after an operation whose record is
// durable: a failed checkpoint leaves the log longer, no less right.
func (f *File) checkpointAfter(op string) {
	if err := f.checkpoint(false); err != nil {
		telemetry.Logger().Warn("file backend: container log checkpoint failed; the log stays as it is", "after", op, "err", err)
	}
}

func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.quiesceLocked()
	err := f.checkpoint(false)
	if cerr := f.log.Close(); err == nil {
		err = cerr
	}
	f.closed = true
	for id, st := range f.staged { // containers nobody will seal now
		st.tmp.abort()
		delete(f.staged, id)
	}
	f.lock.Close() //nolint:errcheck // closing drops the flock; nothing was written
	return err
}

// Drop reclaims merged-away containers, whose live chunks the caller copied
// out first. The merge record is the commit point: before it the drop never
// happened; after it the victims are out of the table, and their files are
// removed by this call or, after a crash, by the next open.
func (f *File) Drop(ctx context.Context, ids []uint32, reason string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	maybeCrash(CrashMergeRemapped)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.quiesceLocked()
	for _, id := range ids {
		if _, ok := f.infos[id]; !ok {
			return fmt.Errorf("file backend: drop: container %d not sealed", id)
		}
	}
	if err := f.retire(recMerge, ids, reason); err != nil {
		return err
	}
	maybeCrash(CrashMergeIntent)
	for i, id := range ids {
		if err := os.Remove(f.dataPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			telemetry.Logger().Warn("file backend: a dropped container's file stays until the next open", "id", id, "err", err)
		}
		if i == 0 {
			maybeCrash(CrashMergeFiles)
		}
	}
	f.checkpointAfter("drop")
	return nil
}

// Quarantine moves a container's data file into quarantine/ beside its
// metadata section and a reason note, for forensics, then takes it out of the
// table with one quarantine record.
func (f *File) Quarantine(ctx context.Context, id uint32, reason string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.quiesceLocked()
	info, ok := f.infos[id]
	if !ok {
		return fmt.Errorf("file backend: quarantine: container %d not sealed", id)
	}
	qdir := filepath.Join(f.dir, quarDir)
	base := filepath.Join(qdir, fmt.Sprintf("%06d", id))
	if err := os.Rename(f.dataPath(id), base+".data"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.WriteFile(base+".meta", EncodeMeta(info.Entries), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".reason", []byte(reason+"\n"), 0o644); err != nil {
		return err
	}
	if err := SyncDir(qdir); err != nil {
		return err
	}
	if err := f.retire(recQuarantine, []uint32{id}, reason); err != nil {
		return err
	}
	f.checkpointAfter("quarantine")
	return nil
}

// retire appends the merge or quarantine record that takes ids out of the
// table, and takes them out. Caller holds f.mu, quiesced.
func (f *File) retire(kind byte, ids []uint32, reason string) error {
	rec, err := appendRetire(nil, kind, ids, reason)
	if err == nil {
		err = f.log.Append(rec)
	}
	if err != nil {
		return err
	}
	for _, id := range ids {
		f.remove(id)
	}
	return nil
}
