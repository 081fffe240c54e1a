// Package catalog is the durable form of a store's retained backups: one
// append-only log, catalog.log, of length- and CRC32C-framed records. A
// commit, a forget and a recipe remap are each one record, one write and one
// fdatasync; Open replays the records in order, and a checkpoint rewrites the
// file as the commit records of the retained set. The package knows recipes
// and labels; a backup's statistics ride along as the bytes the caller gave.
//
// Frame (little-endian), 13 bytes and the payload:
//
//	magic "DFC1" | payload length u32 | kind u8 | crc32c u32 | payload
//
// the CRC covering length, kind and payload. Payloads:
//
//	commit (1): label | stats length u32 | stats | ref count u32 | refs
//	forget (2): label
//	remap  (3): group count u32, then per group
//	            label | move count u32 | moves
//	label:      length u16 | bytes
//	ref:        fp[32] | size u32 | container u32 | segment u64 | offset i64
//	move:       ref index u32 | container u32 | segment u64 | offset i64
//
// A ref's location has the ref's size, so the size is written once. A forget
// or a remap names the first retained backup with its label, as the store's
// own lookup does.
//
// Replay rule. A frame that is short or fails its CRC with no frame that
// parses anywhere after it is an append that was torn before it was
// acknowledged: the log ends there. One followed by a frame that parses is
// damage to acknowledged state, and so is a record that passes its CRC and
// cannot be applied (a forget or remap of a label the replay does not hold, a
// ref index past the recipe's end): Replay fails with a *CorruptError naming
// the offset and the labels it held at that point, so the store says what it
// lost and does not open with fewer backups than were acknowledged.
package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/telemetry"
)

// FileName is the log's name in a store directory.
const FileName = "catalog.log"

const (
	kindCommit byte = 1
	kindForget byte = 2
	kindRemap  byte = 3

	headerSize = 13
	refSize    = chunk.FingerprintSize + 4 + 4 + 8 + 8
	moveSize   = 4 + 4 + 8 + 8

	// checkpointSlack keeps a small store from checkpointing on every forget:
	// the log is rewritten once it is past twice its live bytes plus this.
	checkpointSlack = 1 << 20
)

var (
	magic      = [4]byte{'D', 'F', 'C', '1'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

var (
	telAppends = map[byte]*telemetry.Counter{
		kindCommit: telemetry.NewCounter(telemetry.Name("catalog_appends_total", "kind", "commit"),
			"records appended to the catalog log, by kind; each is one write and one fdatasync"),
		kindForget: telemetry.NewCounter(telemetry.Name("catalog_appends_total", "kind", "forget"), ""),
		kindRemap:  telemetry.NewCounter(telemetry.Name("catalog_appends_total", "kind", "remap"), ""),
	}
	telCheckpoints = telemetry.NewCounter("catalog_checkpoints_total",
		"times the catalog log was rewritten as the commit records of the retained set")
	telLogBytes = telemetry.NewGauge("catalog_log_bytes",
		"size of the catalog log: what the next open replays")
	telLiveBytes = telemetry.NewGauge("catalog_live_bytes",
		"bytes a checkpoint of the catalog would hold now")
	// stageSync is the wall time of a record's write and fdatasync: the part
	// of a commit, forget or remap spent making the catalog durable.
	stageSync = telemetry.Stage("catalog_sync")
)

// Entry is one retained backup: its label, its statistics as the caller
// encoded them, and its recipe.
type Entry struct {
	Label  string
	Stats  []byte
	Recipe *chunk.Recipe
}

// Move repoints one reference of a recipe. Loc.Size is not recorded: a ref's
// location has the ref's size.
type Move struct {
	Index uint32
	Loc   chunk.Location
}

// Remap is the moved references of one backup's recipe.
type Remap struct {
	Label string
	Moves []Move
}

// CorruptError reports a log whose acknowledged records cannot all be
// replayed.
type CorruptError struct {
	Offset int64    // of the record that could not be replayed
	Labels []string // the backups the replay held when it stopped
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("catalog: corrupt record at offset %d (%s); replayed up to there: %d backups %q",
		e.Offset, e.Reason, len(e.Labels), e.Labels)
}

func appendLabel(buf []byte, label string) ([]byte, error) {
	if len(label) > 0xFFFF {
		return buf, fmt.Errorf("catalog: label too long (%d bytes)", len(label))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(label)))
	return append(buf, label...), nil
}

// beginFrame appends a header whose length and CRC endFrame fills in.
func beginFrame(buf []byte, kind byte) []byte {
	buf = append(buf, magic[:]...)
	buf = append(buf, 0, 0, 0, 0, kind)
	return append(buf, 0, 0, 0, 0)
}

// endFrame completes the frame that beginFrame started at buf[start:].
func endFrame(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - headerSize
	if int64(n) > 0xFFFFFFFF {
		return buf, fmt.Errorf("catalog: record of %d bytes is past the format's 4 GiB", n)
	}
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+9:], frameCRC(buf[start+4:start+9], buf[start+headerSize:]))
	return buf, nil
}

func frameCRC(lenKind, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenKind, castagnoli), castagnoli, payload)
}

func appendCommit(buf []byte, e Entry) ([]byte, error) {
	start := len(buf)
	buf = beginFrame(buf, kindCommit)
	buf, err := appendLabel(buf, e.Label)
	if err != nil {
		return buf, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Stats)))
	buf = append(buf, e.Stats...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Recipe.Refs)))
	for i := range e.Recipe.Refs {
		ref := &e.Recipe.Refs[i]
		buf = append(buf, ref.FP[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, ref.Size)
		buf = appendLoc(buf, ref.Loc)
	}
	return endFrame(buf, start)
}

func appendLoc(buf []byte, loc chunk.Location) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, loc.Container)
	buf = binary.LittleEndian.AppendUint64(buf, loc.Segment)
	return binary.LittleEndian.AppendUint64(buf, uint64(loc.Offset))
}

func appendForget(buf []byte, label string) ([]byte, error) {
	start := len(buf)
	buf, err := appendLabel(beginFrame(buf, kindForget), label)
	if err != nil {
		return buf, err
	}
	return endFrame(buf, start)
}

func appendRemap(buf []byte, groups []Remap) ([]byte, error) {
	start := len(buf)
	buf = beginFrame(buf, kindRemap)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(groups)))
	for _, g := range groups {
		var err error
		if buf, err = appendLabel(buf, g.Label); err != nil {
			return buf, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Moves)))
		for _, m := range g.Moves {
			buf = binary.LittleEndian.AppendUint32(buf, m.Index)
			buf = appendLoc(buf, m.Loc)
		}
	}
	return endFrame(buf, start)
}

// payloadReader walks one payload; after a short read every further read
// yields zero and bad stays set.
type payloadReader struct {
	p   []byte
	bad bool
}

func (r *payloadReader) take(n int) []byte {
	if n < 0 || n > len(r.p) {
		r.bad, r.p = true, nil
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *payloadReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *payloadReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *payloadReader) label() string {
	b := r.take(2)
	if b == nil {
		return ""
	}
	return string(r.take(int(binary.LittleEndian.Uint16(b))))
}

func (r *payloadReader) loc(size uint32) chunk.Location {
	return chunk.Location{Container: r.u32(), Segment: r.u64(), Offset: int64(r.u64()), Size: size}
}

// retained is the replay's state: the entries in commit order.
type retained []Entry

func (st retained) find(label string) int {
	return slices.IndexFunc(st, func(e Entry) bool { return e.Label == label })
}

func (st retained) labels() []string {
	out := make([]string, len(st))
	for i := range st {
		out[i] = st[i].Label
	}
	return out
}

// apply replays one record whose frame passed its CRC. Nothing is allocated
// from a count the payload's own length has not vouched for.
func (st *retained) apply(kind byte, payload []byte) error {
	r := payloadReader{p: payload}
	switch kind {
	case kindCommit:
		label := r.label()
		stats := bytes.Clone(r.take(int(r.u32())))
		n := int(r.u32())
		if r.bad || int64(len(r.p)) != int64(n)*refSize {
			return fmt.Errorf("commit of %q: %d refs do not fill %d bytes", label, n, len(r.p))
		}
		rec := &chunk.Recipe{Label: label, Refs: make([]chunk.Ref, n)}
		for i := range rec.Refs {
			ref := &rec.Refs[i]
			copy(ref.FP[:], r.take(chunk.FingerprintSize))
			ref.Size = r.u32()
			ref.Loc = r.loc(ref.Size)
		}
		*st = append(*st, Entry{Label: label, Stats: stats, Recipe: rec})
	case kindForget:
		label := r.label()
		i := st.find(label)
		if r.bad || len(r.p) != 0 {
			return errors.New("forget: malformed payload")
		}
		if i < 0 {
			return fmt.Errorf("forget of %q, which is not retained", label)
		}
		*st = slices.Delete(*st, i, i+1)
	case kindRemap:
		for groups := r.u32(); groups > 0; groups-- {
			label := r.label()
			n := int(r.u32())
			if r.bad || int64(len(r.p)) < int64(n)*moveSize {
				return errors.New("remap: malformed payload")
			}
			i := st.find(label)
			if i < 0 {
				return fmt.Errorf("remap of %q, which is not retained", label)
			}
			refs := (*st)[i].Recipe.Refs
			for ; n > 0; n-- {
				idx := r.u32()
				if int64(idx) >= int64(len(refs)) {
					return fmt.Errorf("remap of %q: ref %d of %d", label, idx, len(refs))
				}
				refs[idx].Loc = r.loc(refs[idx].Size)
			}
		}
		if len(r.p) != 0 {
			return errors.New("remap: malformed payload")
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// readFrame reads the frame at off of a log of size bytes into *buf. ok is
// false when no whole frame with a good CRC starts there.
func readFrame(r io.ReaderAt, off, size int64, buf *[]byte) (kind byte, payload []byte, ok bool) {
	var h [headerSize]byte
	if size-off < headerSize {
		return 0, nil, false
	}
	if _, err := r.ReadAt(h[:], off); err != nil || [4]byte(h[:4]) != magic {
		return 0, nil, false
	}
	n := int64(binary.LittleEndian.Uint32(h[4:]))
	if n > size-off-headerSize {
		return 0, nil, false
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := r.ReadAt(payload, off+headerSize); err != nil {
		return 0, nil, false
	}
	if frameCRC(h[4:9], payload) != binary.LittleEndian.Uint32(h[9:]) {
		return 0, nil, false
	}
	return h[8], payload, true
}

// frameAfter reports whether a frame that parses starts anywhere in
// [from, size): what tells damage from a torn tail.
func frameAfter(r io.ReaderAt, from, size int64) (int64, bool) {
	if from >= size {
		return 0, false
	}
	rest := make([]byte, size-from)
	if _, err := r.ReadAt(rest, from); err != nil {
		return 0, false
	}
	var buf []byte
	img := bytes.NewReader(rest)
	for at := 0; ; at++ {
		i := bytes.Index(rest[at:], magic[:])
		if i < 0 {
			return 0, false
		}
		at += i
		if _, _, ok := readFrame(img, int64(at), int64(len(rest)), &buf); ok {
			return from + int64(at), true
		}
	}
}

// Replay applies the records of a log image of size bytes, in order, and
// returns the retained entries and the length of the image's valid prefix —
// shorter than size when the image ends in a torn append. See the package
// comment for what it refuses.
func Replay(r io.ReaderAt, size int64) (entries []Entry, valid int64, err error) {
	var st retained
	var buf []byte
	off := int64(0)
	for off < size {
		kind, payload, ok := readFrame(r, off, size, &buf)
		if !ok {
			if next, found := frameAfter(r, off+1, size); found {
				return nil, off, &CorruptError{Offset: off, Labels: st.labels(),
					Reason: fmt.Sprintf("bad frame with a valid record after it at %d", next)}
			}
			break
		}
		if aerr := st.apply(kind, payload); aerr != nil {
			return nil, off, &CorruptError{Offset: off, Labels: st.labels(), Reason: aerr.Error()}
		}
		off += headerSize + int64(len(payload))
	}
	return st, off, nil
}

// WriteCheckpoint atomically makes path a log holding exactly entries.
func WriteCheckpoint(path string, entries []Entry) error {
	_, err := writeCheckpoint(path, entries, nil)
	return err
}

func writeCheckpoint(path string, entries []Entry, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for _, e := range entries {
		var err error
		if buf, err = appendCommit(buf, e); err != nil {
			return buf, err
		}
	}
	return buf, blockstore.WriteFileAtomic(path, buf, 0o644)
}

// liveRec is what the Log remembers of a retained backup: enough to check a
// record before it is written and to keep the live-byte count.
type liveRec struct {
	label string
	refs  int
	size  int64 // of its commit record
}

// Log is an open catalog log. It is not safe for concurrent use: the store
// appends under its own lock.
type Log struct {
	path string
	f    *os.File
	size int64 // valid bytes; the next record lands here

	live      []liveRec
	liveBytes int64

	buf    []byte // records and checkpoints are encoded here
	failed error  // the file may hold bytes past size: no further append
}

// Open opens the log at path, creating an empty one if there is none, and
// replays it. A torn tail is cut off; a corrupt log is refused (*CorruptError).
// The entries are the caller's: the Log keeps no recipe.
func Open(path string) (*Log, []Entry, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644); err == nil {
			err = blockstore.SyncDir(filepath.Dir(path))
		}
	}
	if err != nil {
		if f != nil {
			f.Close() //nolint:errcheck // surfacing the create error
		}
		return nil, nil, err
	}
	l := &Log{path: path, f: f}
	entries, err := l.replay()
	if err != nil {
		f.Close() //nolint:errcheck // surfacing the replay error
		return nil, nil, err
	}
	return l, entries, nil
}

func (l *Log) replay() ([]Entry, error) {
	fi, err := l.f.Stat()
	if err != nil {
		return nil, err
	}
	entries, valid, err := Replay(l.f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", l.path, err)
	}
	if valid < fi.Size() {
		telemetry.Logger().Warn("catalog: cutting a torn append off the log",
			"path", l.path, "at", valid, "bytes", fi.Size()-valid)
		if err = l.f.Truncate(valid); err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			return nil, err
		}
	}
	l.size = valid
	l.setLive(entries)
	return entries, nil
}

func commitSize(e Entry) int64 {
	return headerSize + 2 + int64(len(e.Label)) + 4 + int64(len(e.Stats)) + 4 + int64(len(e.Recipe.Refs))*refSize
}

func (l *Log) setLive(entries []Entry) {
	l.live, l.liveBytes = l.live[:0], 0
	for _, e := range entries {
		l.addLive(e)
	}
	l.gauges()
}

func (l *Log) addLive(e Entry) {
	rec := liveRec{label: e.Label, refs: len(e.Recipe.Refs), size: commitSize(e)}
	l.live = append(l.live, rec)
	l.liveBytes += rec.size
}

func (l *Log) findLive(label string) int {
	return slices.IndexFunc(l.live, func(r liveRec) bool { return r.label == label })
}

func (l *Log) gauges() {
	telLogBytes.Set(float64(l.size))
	telLiveBytes.Set(float64(l.liveBytes))
}

// append makes the record in l.buf durable at the log's end: one write, one
// fdatasync. On failure the log is cut back to where it was, so the bytes of
// a record that was never acknowledged cannot sit under a later one.
func (l *Log) append(kind byte) error {
	if l.failed != nil {
		return l.failed
	}
	start := time.Now()
	_, err := l.f.WriteAt(l.buf, l.size)
	if err == nil {
		err = fdatasync(l.f)
	}
	stageSync.Observe(start)
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.failed = fmt.Errorf("catalog: %s is unusable until reopened: append failed (%v) and so did cutting it back: %w", l.path, err, terr)
		}
		return fmt.Errorf("catalog: append to %s: %w", l.path, err)
	}
	l.size += int64(len(l.buf))
	telAppends[kind].Inc()
	return nil
}

// Commit appends e as a retained backup. When it returns nil the record is
// durable.
func (l *Log) Commit(e Entry) (err error) {
	if l.buf, err = appendCommit(l.buf[:0], e); err != nil {
		return err
	}
	if err = l.append(kindCommit); err != nil {
		return err
	}
	l.addLive(e)
	l.gauges()
	return nil
}

// Forget appends the removal of the first retained backup labelled label.
func (l *Log) Forget(label string) (err error) {
	i := l.findLive(label)
	if i < 0 {
		return fmt.Errorf("catalog: forget of %q, which is not retained", label)
	}
	if l.buf, err = appendForget(l.buf[:0], label); err != nil {
		return err
	}
	if err = l.append(kindForget); err != nil {
		return err
	}
	l.liveBytes -= l.live[i].size
	l.live = slices.Delete(l.live, i, i+1)
	l.gauges()
	return nil
}

// Remap appends one record repointing the named references of the named
// backups: all of them durable, or none.
func (l *Log) Remap(groups []Remap) (err error) {
	for _, g := range groups {
		i := l.findLive(g.Label)
		if i < 0 {
			return fmt.Errorf("catalog: remap of %q, which is not retained", g.Label)
		}
		for _, m := range g.Moves {
			if int64(m.Index) >= int64(l.live[i].refs) {
				return fmt.Errorf("catalog: remap of %q: ref %d of %d", g.Label, m.Index, l.live[i].refs)
			}
		}
	}
	if l.buf, err = appendRemap(l.buf[:0], groups); err != nil {
		return err
	}
	if err = l.append(kindRemap); err != nil {
		return err
	}
	l.gauges()
	return nil
}

// Sizes returns the log's length and the length a checkpoint would have.
func (l *Log) Sizes() (logBytes, liveBytes int64) { return l.size, l.liveBytes }

// NeedsCheckpoint reports whether the log has outgrown twice its live bytes
// (plus a fixed slack): the rule that keeps the bytes written per catalog
// byte constant and a reopen's replay under twice the retained set.
func (l *Log) NeedsCheckpoint() bool { return l.size > 2*l.liveBytes+checkpointSlack }

// Checkpoint rewrites the log as the commit records of entries, which must be
// the retained set as the log's records leave it. The old and the new file
// replay to the same state, so whichever of them a crash — or a failure here
// — leaves in place is right.
func (l *Log) Checkpoint(entries []Entry) error {
	if l.failed != nil {
		return l.failed
	}
	var werr error
	l.buf, werr = writeCheckpoint(l.path, entries, l.buf)
	// The rename is what counts, and it may have happened even if a later
	// step failed: go on with whichever file has the name now.
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err != nil {
		l.failed = fmt.Errorf("catalog: %s is unusable until reopened: %w", l.path, errors.Join(werr, err))
		return l.failed
	}
	was, err1 := l.f.Stat()
	is, err2 := nf.Stat()
	if err1 != nil || err2 != nil || os.SameFile(was, is) {
		nf.Close() //nolint:errcheck // nothing was written through it
		return errors.Join(werr, err1, err2)
	}
	l.f.Close() //nolint:errcheck // every record in it was synced when appended
	l.f, l.size = nf, is.Size()
	l.setLive(entries)
	telCheckpoints.Inc()
	return werr
}

// Close releases the file. Every acknowledged record is already durable.
func (l *Log) Close() error { return l.f.Close() }
