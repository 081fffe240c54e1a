package blockstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// File is the durable directory-backed backend. Layout under its root:
//
//	MANIFEST.json        checkpointed container table (atomic tmp+fsync+rename)
//	wal.jsonl            fsync'd seal log since the last manifest checkpoint
//	containers/N.meta    binary chunk-metadata section (EncodeMeta)
//	containers/N.data    raw data section (only when StoresData)
//	quarantine/          containers moved aside by fsck -repair
//
// Seal ordering makes crashes safe: the meta (and data) files are written
// and fsync'd first, then a WAL line referencing them is appended and
// fsync'd. Opening replays the manifest, then WAL records past its
// checkpoint sequence; a torn WAL tail is ignored. Sync folds the WAL into
// a fresh manifest and truncates it.
type File struct {
	mu         sync.Mutex
	dir        string
	storesData bool
	infos      map[uint32]ContainerInfo
	wal        *os.File
	walSeq     uint64 // last sequence appended to the WAL
	checkpoint uint64 // last sequence folded into MANIFEST.json
	closed     bool

	zero zeroView // what a metadata-only store reads

	// staged holds, per container still filling, the head of its data section
	// that Stage has already put into the temp file Seal will rename.
	staged map[uint32]*stagedSection

	// WAL group commit (see commitWAL): records enqueued while an fsync is
	// in flight ride out together on the next one.
	cohort     *walCohort
	committing bool
	quiet      *sync.Cond // broadcast when commitWAL goes idle
}

// walCohort is one group-commit batch: the concatenated WAL lines of every
// seal waiting on the same fsync, plus the table entries to publish once it
// lands.
type walCohort struct {
	buf   []byte
	infos []ContainerInfo
	done  chan struct{}
	err   error
}

const (
	manifestName = "MANIFEST.json"
	walName      = "wal.jsonl"
	containerDir = "containers"
	quarDir      = "quarantine"
)

type manifest struct {
	Version    int             `json:"version"`
	StoresData bool            `json:"storesData"`
	Checkpoint uint64          `json:"checkpoint"`
	Containers []manifestEntry `json:"containers"`
}

type manifestEntry struct {
	ID       uint32 `json:"id"`
	Start    int64  `json:"start"`
	DataFill int64  `json:"dataFill"`
	End      int64  `json:"end"`
}

// walRecord is one fsync'd line in wal.jsonl. Op is "seal" (default),
// "drop" (quarantine tombstone), or "merge" — a container-merge intent
// whose Victims are reclaimed as a unit. A durable merge record is the
// commit point of the drop: replay rolls it forward (table entries removed,
// remaining files deleted) even if the process died mid-deletion.
type walRecord struct {
	Seq      uint64   `json:"seq"`
	Op       string   `json:"op,omitempty"`
	ID       uint32   `json:"id"`
	Start    int64    `json:"start"`
	DataFill int64    `json:"dataFill"`
	End      int64    `json:"end"`
	Victims  []uint32 `json:"victims,omitempty"`
	Reason   string   `json:"reason,omitempty"`
}

// OpenFile opens (or initialises) a directory-backed store rooted at dir.
// When the directory already holds a manifest, its storesData setting wins
// over the argument — the physical store's nature is fixed at creation.
func OpenFile(dir string, storesData bool) (*File, error) {
	for _, sub := range []string{dir, filepath.Join(dir, containerDir), filepath.Join(dir, quarDir)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	f := &File{dir: dir, storesData: storesData, infos: make(map[uint32]ContainerInfo),
		staged: make(map[uint32]*stagedSection)}
	f.quiet = sync.NewCond(&f.mu)
	// What a crash left half-written was never renamed in, so never referenced.
	for _, sub := range []string{dir, filepath.Join(dir, containerDir)} {
		if err := RemoveTemps(sub); err != nil {
			return nil, err
		}
	}

	// The WAL is scanned before the manifest is materialised: a "merge"
	// intent past the checkpoint means its victims' files may already be
	// gone, so their manifest entries (and earlier seal records) must not be
	// loaded at all.
	recs, err := f.scanWAL()
	if err != nil {
		return nil, err
	}

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("file backend: parse %s: %w", manifestName, err)
		}
		if m.Version != 1 {
			return nil, fmt.Errorf("file backend: unsupported manifest version %d", m.Version)
		}
		f.storesData = m.StoresData
		f.checkpoint = m.Checkpoint
		f.walSeq = m.Checkpoint

		// dropped[id] = latest WAL sequence past the checkpoint at which the
		// container was dropped or merged away.
		dropped := make(map[uint32]uint64)
		for _, rec := range recs {
			if rec.Seq <= f.checkpoint {
				continue
			}
			switch rec.Op {
			case "drop":
				dropped[rec.ID] = rec.Seq
			case "merge":
				for _, id := range rec.Victims {
					dropped[id] = rec.Seq
				}
			}
		}
		for _, e := range m.Containers {
			if _, gone := dropped[e.ID]; gone {
				continue
			}
			info, err := f.loadInfo(e.ID, e.Start, e.DataFill, e.End)
			if err != nil {
				return nil, err
			}
			f.infos[e.ID] = info
		}
		if err := f.replayWAL(recs, dropped); err != nil {
			return nil, err
		}
	case errors.Is(err, fs.ErrNotExist):
		// fresh store: replay everything the WAL holds
		dropped := make(map[uint32]uint64)
		for _, rec := range recs {
			switch rec.Op {
			case "drop":
				dropped[rec.ID] = rec.Seq
			case "merge":
				for _, id := range rec.Victims {
					dropped[id] = rec.Seq
				}
			}
		}
		if err := f.replayWAL(recs, dropped); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	f.wal = wal
	return f, nil
}

// scanWAL decodes wal.jsonl into records without applying them. A torn
// final line (crash mid-append) is ignored; anything torn *before* a
// complete line means real corruption and is reported.
func (f *File) scanWAL() ([]walRecord, error) {
	walPath := filepath.Join(f.dir, walName)
	wf, err := os.Open(walPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer wf.Close()
	sc := bufio.NewScanner(wf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var recs []walRecord
	var torn bool
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			torn = true
			continue
		}
		if torn {
			return nil, Corruptf("file backend: wal record after torn line")
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// replayWAL applies records newer than the manifest checkpoint. dropped
// maps container IDs to the sequence of the record that removed them: a
// seal superseded by a later drop/merge is skipped entirely (its files may
// no longer exist), and a merge intent is rolled forward — the remaining
// victim files are deleted, making a crash at any point of Drop idempotent.
func (f *File) replayWAL(recs []walRecord, dropped map[uint32]uint64) error {
	for _, rec := range recs {
		if rec.Seq <= f.checkpoint {
			continue // already folded into the manifest
		}
		if rec.Seq > f.walSeq {
			f.walSeq = rec.Seq
		}
		switch rec.Op {
		case "drop":
			delete(f.infos, rec.ID)
		case "merge":
			for _, id := range rec.Victims {
				delete(f.infos, id)
				if err := f.removeContainerFiles(id); err != nil {
					return err
				}
			}
		default: // seal
			if dseq, gone := dropped[rec.ID]; gone && dseq > rec.Seq {
				continue
			}
			info, err := f.loadInfo(rec.ID, rec.Start, rec.DataFill, rec.End)
			if err != nil {
				return err
			}
			f.infos[rec.ID] = info
		}
	}
	return nil
}

// removeContainerFiles deletes a container's meta/data files, tolerating
// files already gone (merge roll-forward re-runs after a crash).
func (f *File) removeContainerFiles(id uint32) error {
	for _, p := range []string{f.metaPath(id), f.dataPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// loadInfo materialises a container table entry, parsing its fsync'd
// metadata file.
func (f *File) loadInfo(id uint32, start, fill, end int64) (ContainerInfo, error) {
	raw, err := os.ReadFile(f.metaPath(id))
	if err != nil {
		return ContainerInfo{}, fmt.Errorf("file backend: container %d: %w", id, err)
	}
	entries, err := DecodeMeta(raw)
	if err != nil {
		return ContainerInfo{}, fmt.Errorf("file backend: container %d: %w", id, err)
	}
	return ContainerInfo{ID: id, Start: start, DataFill: fill, End: end, Entries: entries}, nil
}

func (f *File) metaPath(id uint32) string {
	return filepath.Join(f.dir, containerDir, fmt.Sprintf("%06d.meta", id))
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
	st := f.takeStaged(info.ID)
	// Container files are keyed by ID and each ID is sealed by exactly one
	// writer at a time, so concurrent seals of distinct containers write
	// their meta/data files in parallel without holding the table lock. So
	// are the two files of one container, which know nothing of each other
	// until the WAL line: the small one's fsync and rename ride the other's.
	metaDone := make(chan error, 1)
	go func() { metaDone <- WriteFileAtomic(f.metaPath(info.ID), EncodeMeta(info.Entries), 0o644) }()
	var err error
	if f.storesData {
		err = f.sealData(st, info.ID, data)
	}
	if merr := <-metaDone; err == nil {
		err = merr
	}
	if err != nil {
		return err
	}
	maybeCrash(CrashSealData)
	return f.commitWAL(walRecord{ID: info.ID, Start: info.Start, DataFill: info.DataFill, End: info.End}, cloneInfo(info))
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

// commitWAL appends rec to the WAL with group commit: the first arrival
// becomes the leader and fsyncs; records enqueued while that fsync is in
// flight accumulate into the next cohort, which the same leader pushes out
// with a single write+sync. N concurrent seals thus pay ~1 fsync instead of
// N. The leader publishes every cohort member's table entry (under f.mu)
// before waking it, so at any quiescent point f.infos matches the durable
// WAL exactly — the invariant Sync relies on to fold and truncate safely.
func (f *File) commitWAL(rec walRecord, info ContainerInfo) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	f.walSeq++
	rec.Seq = f.walSeq
	line, err := json.Marshal(rec)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	if f.cohort == nil {
		f.cohort = &walCohort{done: make(chan struct{})}
	}
	mine := f.cohort
	mine.buf = append(mine.buf, line...)
	mine.buf = append(mine.buf, '\n')
	mine.infos = append(mine.infos, info)
	if f.committing {
		// A sync is in flight; its leader will carry this cohort too.
		f.mu.Unlock()
		<-mine.done
		return mine.err
	}
	f.committing = true
	for c := mine; ; {
		f.cohort = nil
		f.mu.Unlock()
		_, werr := f.wal.Write(c.buf)
		if werr == nil {
			werr = f.wal.Sync()
		}
		c.err = werr
		f.mu.Lock()
		if werr == nil {
			for _, ci := range c.infos {
				f.infos[ci.ID] = ci
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

// quiesceLocked waits until no WAL group commit is in flight or queued.
// Caller holds f.mu.
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

// readSection reads container id's data file, which must hold exactly want
// bytes — longer is as torn as shorter — into a buffer the ctx's lender
// offers (see Backend), else a new one. Checking the length first means a torn
// file never costs a loan. A ranged loan is filled range by range, each with
// one pread at its own offset; anything else is one read of the whole file.
func (f *File) readSection(ctx context.Context, id uint32, want int64) ([]byte, error) {
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
		return Corruptf("file backend: container %d torn: data section %d bytes, expected %d", id, have, want)
	}
	if st.Size() != want {
		return nil, torn(st.Size())
	}
	var data []byte
	whole := [1]Range{{Off: 0, Len: want}}
	ranges := whole[:]
	if l := LenderFrom(ctx); l != nil {
		if buf, wanted := l(id, want); int64(len(buf)) >= want {
			data = buf[:want]
			if wanted != nil {
				ranges = wanted
			}
		}
	}
	if data == nil {
		data = make([]byte, want)
	}
	// All of them before the first read: a section is filled as asked or not
	// returned at all.
	end := int64(0)
	for _, r := range ranges {
		if r.Off < end || r.Len < 0 || r.Len > want-r.Off {
			return nil, fmt.Errorf("file backend: container %d: lender wants [%d,+%d) after byte %d of a %d-byte section: ranges must be sorted, disjoint and inside it",
				id, r.Off, r.Len, end, want)
		}
		end = r.Off + r.Len
	}
	for _, r := range ranges {
		if n, err := fh.ReadAt(data[r.Off:r.Off+r.Len], r.Off); err != nil {
			if errors.Is(err, io.EOF) { // shrank since Stat
				return nil, torn(r.Off + int64(n))
			}
			return nil, fmt.Errorf("file backend: container %d: %w", id, err)
		}
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

// Sync folds the WAL into a fresh manifest (atomic rename) and truncates
// the WAL. After a successful Sync the store opens without replay work.
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
	return f.syncLocked()
}

func (f *File) syncLocked() error {
	m := manifest{Version: 1, StoresData: f.storesData, Checkpoint: f.walSeq}
	for _, info := range f.infos {
		m.Containers = append(m.Containers, manifestEntry{
			ID: info.ID, Start: info.Start, DataFill: info.DataFill, End: info.End,
		})
	}
	sort.Slice(m.Containers, func(i, j int) bool { return m.Containers[i].ID < m.Containers[j].ID })
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(filepath.Join(f.dir, manifestName), raw, 0o644); err != nil {
		return err
	}
	f.checkpoint = f.walSeq
	// The manifest now covers every WAL record; dropping the log is safe
	// even if the truncate itself is lost (replay skips seq <= checkpoint).
	if err := f.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := f.wal.Seek(0, 0); err != nil {
		return err
	}
	return f.wal.Sync()
}

func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.quiesceLocked()
	err := f.syncLocked()
	if cerr := f.wal.Close(); err == nil {
		err = cerr
	}
	f.closed = true
	for id, st := range f.staged { // containers nobody will seal now
		st.tmp.abort()
		delete(f.staged, id)
	}
	return err
}

// Drop reclaims a batch of merged-away containers. The commit point is one
// fsync'd WAL "merge" intent record: before it lands, the drop never
// happened and every victim stays listed and readable; after it lands the
// drop is guaranteed to complete — the victims' files are deleted and the
// manifest checkpointed by this call, or by WAL roll-forward when a crashed
// process reopens the store (see replayWAL). Callers must have copied any
// still-live chunks out of the victims first.
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
	f.walSeq++
	rec := walRecord{Seq: f.walSeq, Op: "merge", Victims: ids, Reason: reason}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := f.wal.Write(line); err != nil {
		return err
	}
	if err := f.wal.Sync(); err != nil {
		return err
	}
	// The intent is durable: from here the drop completes, by us now or by
	// roll-forward on the next open.
	maybeCrash(CrashMergeIntent)
	for i, id := range ids {
		delete(f.infos, id)
		if err := f.removeContainerFiles(id); err != nil {
			return err
		}
		if i == 0 {
			maybeCrash(CrashMergeFiles)
		}
	}
	return f.syncLocked()
}

// Quarantine moves a container's files into quarantine/ alongside a reason
// note, drops it from the table, and checkpoints. The bytes survive for
// forensics; List no longer reports the id.
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
	if _, ok := f.infos[id]; !ok {
		return fmt.Errorf("file backend: quarantine: container %d not sealed", id)
	}
	qdir := filepath.Join(f.dir, quarDir)
	for _, src := range []string{f.metaPath(id), f.dataPath(id)} {
		dst := filepath.Join(qdir, filepath.Base(src))
		if err := os.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	note := filepath.Join(qdir, fmt.Sprintf("%06d.reason", id))
	if err := os.WriteFile(note, []byte(reason+"\n"), 0o644); err != nil {
		return err
	}
	if err := SyncDir(qdir); err != nil {
		return err
	}
	delete(f.infos, id)
	return f.syncLocked()
}
