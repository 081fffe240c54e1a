package blockstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/telemetry"
)

// A record log is the store directory's one metadata format, for the
// container table (containers.log) and the catalog (catalog.log) alike: an
// append-only file of frames, little-endian,
//
//	magic [4] | payload length u32 | kind u8 | crc32c u32 | payload
//
// the CRC over length, kind and payload, the magic one per log. Each log owns
// its payloads and replay state; the rules are here. A bad frame with no frame
// that parses after it is an append torn before it was acknowledged: the log
// ends there. One with a frame after it, or a record its log cannot apply, is
// damage: the replay fails naming the offset (*BadRecord) rather than open with
// less than was acknowledged. A log is rewritten as its live state's records
// once it is past twice their size plus checkpointSlack.

// FrameHeader is the size of a frame before its payload.
const FrameHeader = 13

// checkpointSlack keeps a small log from checkpointing on every record that
// makes garbage.
const checkpointSlack = 1 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BeginFrame appends a header whose length and CRC EndFrame fills in.
func BeginFrame(buf []byte, magic [4]byte, kind byte) []byte {
	buf = append(buf, magic[:]...)
	buf = append(buf, 0, 0, 0, 0, kind)
	return append(buf, 0, 0, 0, 0)
}

// EndFrame completes the frame that BeginFrame started at buf[start:].
func EndFrame(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - FrameHeader
	if int64(n) > 0xFFFFFFFF {
		return buf, fmt.Errorf("record of %d bytes is past the format's 4 GiB", n)
	}
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+9:], frameCRC(buf[start+4:start+9], buf[start+FrameHeader:]))
	return buf, nil
}

func frameCRC(lenKind, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(lenKind, castagnoli), castagnoli, payload)
}

// AppendLabel appends s as a u16 length and its bytes.
func AppendLabel(buf []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return buf, fmt.Errorf("label too long (%d bytes)", len(s))
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...), nil
}

// Payload walks one record's payload; after a short read every further read
// yields zero and Bad reports true.
type Payload struct {
	p   []byte
	bad bool
}

// NewPayload returns a reader over p.
func NewPayload(p []byte) *Payload { return &Payload{p: p} }

// Take returns the next n bytes.
func (r *Payload) Take(n int) []byte {
	if n < 0 || n > len(r.p) {
		r.bad, r.p = true, nil
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *Payload) U32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Payload) U64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// fixed is Take(n), or n zero bytes past the payload's end.
func (r *Payload) fixed(n int) []byte {
	if b := r.Take(n); b != nil {
		return b
	}
	return make([]byte, n)
}

// Label reads what AppendLabel wrote.
func (r *Payload) Label() string {
	b := r.Take(2)
	if b == nil {
		return ""
	}
	return string(r.Take(int(binary.LittleEndian.Uint16(b))))
}

// Bad reports whether a read ran past the payload's end.
func (r *Payload) Bad() bool { return r.bad }

// Rest returns the bytes not yet read.
func (r *Payload) Rest() []byte { return r.p }

// readFrame returns the frame at img[off:]; ok is false when no whole frame
// with a good CRC starts there.
func readFrame(img []byte, magic [4]byte, off int) (kind byte, payload []byte, ok bool) {
	h := img[off:]
	if len(h) < FrameHeader || [4]byte(h[:4]) != magic {
		return 0, nil, false
	}
	n := int64(binary.LittleEndian.Uint32(h[4:]))
	if n > int64(len(h)-FrameHeader) {
		return 0, nil, false
	}
	payload = h[FrameHeader : FrameHeader+n]
	return h[8], payload, frameCRC(h[4:9], payload) == binary.LittleEndian.Uint32(h[9:])
}

// BadRecord reports a log whose acknowledged records cannot all be replayed.
type BadRecord struct {
	Offset int64 // of the record that could not be replayed
	Reason string
}

func (e *BadRecord) Error() string {
	return fmt.Sprintf("corrupt record at offset %d (%s)", e.Offset, e.Reason)
}

// ReplayFrames hands apply the records of a log image, in order, and returns
// the length of the image's valid prefix — short of the image when it ends in
// a torn append. A payload aliases img. See the replay rule above for what it
// refuses.
func ReplayFrames(img []byte, magic [4]byte, apply func(kind byte, payload []byte) error) (valid int64, err error) {
	off := 0
	for off < len(img) {
		kind, payload, ok := readFrame(img, magic, off)
		if !ok {
			// Damage or a torn tail: whether a frame that parses follows.
			for at := off + 1; at < len(img); at++ {
				i := bytes.Index(img[at:], magic[:])
				if i < 0 {
					break
				}
				at += i
				if _, _, ok := readFrame(img, magic, at); ok {
					return int64(off), &BadRecord{Offset: int64(off), Reason: fmt.Sprintf("bad frame with a valid record after it at %d", at)}
				}
			}
			break
		}
		if aerr := apply(kind, payload); aerr != nil {
			return int64(off), &BadRecord{Offset: int64(off), Reason: aerr.Error()}
		}
		off += FrameHeader + len(payload)
	}
	return int64(off), nil
}

// RecordLog is an open record log. It is not safe for concurrent use: its
// owner appends under its own lock.
type RecordLog struct {
	fsys   FS
	path   string
	f      FSFile
	size   int64 // valid bytes; the next record lands here
	failed error // the file may hold bytes past size: no further append
}

// OpenRecordLog opens the log at path on fsys, creating an empty one if there
// is none, and replays it: replay is handed the file's bytes and returns the
// length of their valid prefix, or the error that refuses them. A torn tail
// past the prefix is cut off.
func OpenRecordLog(fsys FS, path string, replay func(img []byte) (int64, error)) (*RecordLog, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR)
	if errors.Is(err, fs.ErrNotExist) {
		if f, err = fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL); err == nil {
			err = fsys.SyncDir(filepath.Dir(path))
		}
	}
	var img []byte
	var st fs.FileInfo
	if err == nil {
		st, err = f.Stat()
	}
	if err == nil { // sized by the stat: one allocation
		img = make([]byte, st.Size())
		_, err = f.ReadAt(img, 0)
	}
	l := &RecordLog{fsys: fsys, path: path, f: f}
	if err == nil {
		if l.size, err = replay(img); err != nil {
			err = fmt.Errorf("%s: %w", path, err)
		}
	}
	if err == nil && l.size < int64(len(img)) {
		telemetry.Logger().Warn("cutting a torn append off a record log",
			"path", path, "at", l.size, "bytes", int64(len(img))-l.size)
		if err = f.Truncate(l.size); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		if f != nil {
			f.Close() //nolint:errcheck // surfacing the open or replay error
		}
		return nil, err
	}
	return l, nil
}

// Size returns the log's length: what the next open replays.
func (l *RecordLog) Size() int64 { return l.size }

// Due reports whether a log whose live state is live bytes of records has
// outgrown the checkpoint rule.
func (l *RecordLog) Due(live int64) bool { return l.size > 2*live+checkpointSlack }

// Append makes recs — whole frames — durable at the log's end: one write, one
// fdatasync. On failure the log is cut back to where it was, so the bytes of a
// record that was never acknowledged cannot sit under a later one.
func (l *RecordLog) Append(recs []byte) error {
	if l.failed != nil {
		return l.failed
	}
	_, err := l.f.WriteAt(recs, l.size)
	if err == nil {
		err = l.f.Datasync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.failed = fmt.Errorf("%s is unusable until reopened: append failed (%v) and so did cutting it back: %w", l.path, err, terr)
		}
		return fmt.Errorf("append to %s: %w", l.path, err)
	}
	l.size += int64(len(recs))
	return nil
}

// Checkpoint makes image, which must replay to the state the log's records
// leave, the whole log, and reports whether the log now continues in the new
// file. The old and the new file replay to the same state, so whichever of
// them a crash — or a failure here — leaves in place is right.
func (l *RecordLog) Checkpoint(image []byte) (bool, error) {
	if l.failed != nil {
		return false, l.failed
	}
	renamed, werr := writeAtomic(l.fsys, l.path, image)
	// The rename is what counts, and it may have happened even if a later
	// step failed: go on with whichever file has the name now.
	nf, err := l.fsys.OpenFile(l.path, os.O_RDWR)
	if err != nil {
		l.failed = fmt.Errorf("%s is unusable until reopened: %w", l.path, errors.Join(werr, err))
		return false, l.failed
	}
	if !renamed {
		nf.Close() //nolint:errcheck // nothing was written through it
		return false, werr
	}
	l.f.Close() //nolint:errcheck // every record in it was synced when appended
	l.f, l.size = nf, int64(len(image))
	return true, werr
}

// Close releases the file. Every acknowledged record is already durable.
func (l *RecordLog) Close() error { return l.f.Close() }
