// Package catalog is the durable form of a store's retained backups: one
// record log, catalog.log, in blockstore's record-log format (frames, replay
// and checkpoint rules), magic "DFC1". A commit, a forget and a recipe remap
// are each one record; a checkpoint is the commit records of the retained set.
// The package knows recipes and labels; a backup's statistics ride along as
// the bytes the caller gave. Payloads (little-endian):
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
// own lookup does. A forget or remap of a label the replay does not hold, or
// of a ref past the recipe's end, is damage: Replay fails with a *CorruptError
// naming the offset and the labels it held at that point.
package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

	refSize  = chunk.FingerprintSize + 4 + 4 + 8 + 8
	moveSize = 4 + 4 + 8 + 8
)

var magic = [4]byte{'D', 'F', 'C', '1'}

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

func appendCommit(buf []byte, e Entry) ([]byte, error) {
	start := len(buf)
	buf, err := blockstore.AppendLabel(blockstore.BeginFrame(buf, magic, kindCommit), e.Label)
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
	return blockstore.EndFrame(buf, start)
}

func appendLoc(buf []byte, loc chunk.Location) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, loc.Container)
	buf = binary.LittleEndian.AppendUint64(buf, loc.Segment)
	return binary.LittleEndian.AppendUint64(buf, uint64(loc.Offset))
}

func appendForget(buf []byte, label string) ([]byte, error) {
	start := len(buf)
	buf, err := blockstore.AppendLabel(blockstore.BeginFrame(buf, magic, kindForget), label)
	if err != nil {
		return buf, err
	}
	return blockstore.EndFrame(buf, start)
}

func appendRemap(buf []byte, groups []Remap) ([]byte, error) {
	start := len(buf)
	buf = blockstore.BeginFrame(buf, magic, kindRemap)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(groups)))
	for _, g := range groups {
		var err error
		if buf, err = blockstore.AppendLabel(buf, g.Label); err != nil {
			return buf, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Moves)))
		for _, m := range g.Moves {
			buf = binary.LittleEndian.AppendUint32(buf, m.Index)
			buf = appendLoc(buf, m.Loc)
		}
	}
	return blockstore.EndFrame(buf, start)
}

func readLoc(r *blockstore.Payload, size uint32) chunk.Location {
	return chunk.Location{Container: r.U32(), Segment: r.U64(), Offset: int64(r.U64()), Size: size}
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
	r := blockstore.NewPayload(payload)
	switch kind {
	case kindCommit:
		label := r.Label()
		stats := bytes.Clone(r.Take(int(r.U32())))
		n := int(r.U32())
		if r.Bad() || int64(len(r.Rest())) != int64(n)*refSize {
			return fmt.Errorf("commit of %q: %d refs do not fill %d bytes", label, n, len(r.Rest()))
		}
		rec := &chunk.Recipe{Label: label, Refs: make([]chunk.Ref, n)}
		for i := range rec.Refs {
			ref := &rec.Refs[i]
			copy(ref.FP[:], r.Take(chunk.FingerprintSize))
			ref.Size = r.U32()
			ref.Loc = readLoc(r, ref.Size)
		}
		*st = append(*st, Entry{Label: label, Stats: stats, Recipe: rec})
	case kindForget:
		label := r.Label()
		i := st.find(label)
		if r.Bad() || len(r.Rest()) != 0 {
			return errors.New("forget: malformed payload")
		}
		if i < 0 {
			return fmt.Errorf("forget of %q, which is not retained", label)
		}
		*st = slices.Delete(*st, i, i+1)
	case kindRemap:
		for groups := r.U32(); groups > 0; groups-- {
			label := r.Label()
			n := int(r.U32())
			if r.Bad() || int64(len(r.Rest())) < int64(n)*moveSize {
				return errors.New("remap: malformed payload")
			}
			i := st.find(label)
			if i < 0 {
				return fmt.Errorf("remap of %q, which is not retained", label)
			}
			refs := (*st)[i].Recipe.Refs
			for ; n > 0; n-- {
				idx := r.U32()
				if int64(idx) >= int64(len(refs)) {
					return fmt.Errorf("remap of %q: ref %d of %d", label, idx, len(refs))
				}
				refs[idx].Loc = readLoc(r, refs[idx].Size)
			}
		}
		if len(r.Rest()) != 0 {
			return errors.New("remap: malformed payload")
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// Replay applies the records of a log image, in order, and returns the
// retained entries and the length of the image's valid prefix — short of the
// image when it ends in a torn append. See the package comment for what it
// refuses.
func Replay(img []byte) (entries []Entry, valid int64, err error) {
	var st retained
	valid, err = blockstore.ReplayFrames(img, magic, st.apply)
	var bad *blockstore.BadRecord
	if errors.As(err, &bad) {
		return nil, valid, &CorruptError{Offset: bad.Offset, Labels: st.labels(), Reason: bad.Reason}
	}
	return st, valid, err
}

// WriteCheckpointOn atomically makes path on fsys a log holding exactly
// entries.
func WriteCheckpointOn(fsys blockstore.FS, path string, entries []Entry) error {
	image, err := appendCheckpoint(nil, entries)
	if err != nil {
		return err
	}
	return blockstore.WriteFileAtomic(fsys, path, image)
}

func appendCheckpoint(buf []byte, entries []Entry) ([]byte, error) {
	for _, e := range entries {
		var err error
		if buf, err = appendCommit(buf, e); err != nil {
			return buf, err
		}
	}
	return buf, nil
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
	log *blockstore.RecordLog

	live      []liveRec
	liveBytes int64

	buf []byte // records and checkpoints are encoded here
}

// OpenOn opens the log at path on fsys, creating an empty one if there is
// none, and replays it. A torn tail is cut off; a corrupt log is refused
// (*CorruptError). The entries are the caller's: the Log keeps no recipe.
func OpenOn(fsys blockstore.FS, path string) (*Log, []Entry, error) {
	var entries []Entry
	rl, err := blockstore.OpenRecordLog(fsys, path, func(img []byte) (valid int64, err error) {
		entries, valid, err = Replay(img)
		return valid, err
	})
	if err != nil {
		return nil, nil, err
	}
	l := &Log{log: rl}
	l.setLive(entries)
	return l, entries, nil
}

func commitSize(e Entry) int64 {
	return blockstore.FrameHeader + 2 + int64(len(e.Label)) + 4 + int64(len(e.Stats)) + 4 + int64(len(e.Recipe.Refs))*refSize
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
	telLogBytes.Set(float64(l.log.Size()))
	telLiveBytes.Set(float64(l.liveBytes))
}

// append makes the record in l.buf durable at the log's end.
func (l *Log) append(kind byte) error {
	start := time.Now()
	err := l.log.Append(l.buf)
	stageSync.Observe(start)
	if err == nil {
		telAppends[kind].Inc()
	}
	return err
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
func (l *Log) Sizes() (logBytes, liveBytes int64) { return l.log.Size(), l.liveBytes }

// NeedsCheckpoint reports whether the log has outgrown its checkpoint rule.
func (l *Log) NeedsCheckpoint() bool { return l.log.Due(l.liveBytes) }

// Checkpoint rewrites the log as the commit records of entries, which must be
// the retained set as the log's records leave it.
func (l *Log) Checkpoint(entries []Entry) error {
	var err error
	if l.buf, err = appendCheckpoint(l.buf[:0], entries); err != nil {
		return err
	}
	switched, err := l.log.Checkpoint(l.buf)
	if switched {
		l.setLive(entries)
		telCheckpoints.Inc()
	}
	return err
}

// Close releases the file. Every acknowledged record is already durable.
func (l *Log) Close() error { return l.log.Close() }
