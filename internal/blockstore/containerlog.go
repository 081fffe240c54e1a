package blockstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
)

// containers.log is File's container table, a record log with the magic
// "DFB1". Payloads (little-endian):
//
//	header     (1): storesData u8 — the first record, and only there
//	seal       (2): id u32 | start i64 | fill i64 | end i64 | EncodeMeta(entries)
//	merge      (3): id count u32 | ids u32… | reason (length u16 | bytes)
//	quarantine (4): as merge, with one id
//
// A seal of an id the table holds replaces it (a re-seal after a failure). A
// merge, Drop's commit point, and a quarantine take their ids out of the
// table; one naming an id the table does not hold is damage.
const logName = "containers.log"

var logMagic = [4]byte{'D', 'F', 'B', '1'}

const (
	recHeader     byte = 1
	recSeal       byte = 2
	recMerge      byte = 3
	recQuarantine byte = 4
)

func appendHeader(buf []byte, storesData bool) []byte {
	var b byte
	if storesData {
		b = 1
	}
	buf, _ = EndFrame(append(BeginFrame(buf, logMagic, recHeader), b), len(buf))
	return buf
}

func appendSeal(buf []byte, info ContainerInfo) ([]byte, error) {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(BeginFrame(buf, logMagic, recSeal), info.ID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(info.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(info.DataFill))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(info.End))
	return EndFrame(appendMeta(buf, info.Entries), start)
}

// sealSize is the length of info's seal record: id, start, fill, end, count.
func sealSize(info ContainerInfo) int64 {
	return FrameHeader + 4 + 8 + 8 + 8 + 4 + int64(len(info.Entries))*metaEntryWire
}

// appendRetire appends a merge or a quarantine record.
func appendRetire(buf []byte, kind byte, ids []uint32, reason string) ([]byte, error) {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(BeginFrame(buf, logMagic, kind), uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	buf, err := AppendLabel(buf, reason)
	if err != nil {
		return buf, err
	}
	return EndFrame(buf, start)
}

// table is the container table as the log's records leave it, and the bytes
// a checkpoint of it would hold.
type table struct {
	headed     bool
	storesData bool
	infos      map[uint32]ContainerInfo
	live       int64
}

func (t *table) put(info ContainerInfo) {
	t.remove(info.ID)
	t.infos[info.ID] = info
	t.live += sealSize(info)
}

func (t *table) remove(id uint32) {
	if info, ok := t.infos[id]; ok {
		t.live -= sealSize(info)
		delete(t.infos, id)
	}
}

// apply replays one record whose frame passed its CRC. Nothing is allocated
// from a count the payload's own length has not vouched for.
func (t *table) apply(kind byte, payload []byte) error {
	r := NewPayload(payload)
	if (kind == recHeader) == t.headed {
		return fmt.Errorf("record of kind %d out of order: the header comes first, once", kind)
	}
	switch kind {
	case recHeader:
		b := r.Take(1)
		if len(r.Rest()) != 0 || r.Bad() {
			return errors.New("header: malformed payload")
		}
		t.headed, t.storesData = true, b[0] == 1
	case recSeal:
		info := ContainerInfo{ID: r.U32(), Start: int64(r.U64()), DataFill: int64(r.U64()), End: int64(r.U64())}
		if r.Bad() {
			return errors.New("seal: malformed payload")
		}
		var err error
		if info.Entries, err = DecodeMeta(r.Rest()); err != nil {
			return fmt.Errorf("seal of container %d: %w", info.ID, err)
		}
		t.put(info)
	case recMerge, recQuarantine:
		ids := r.Take(4 * int(r.U32()))
		r.Label()
		if r.Bad() || len(r.Rest()) != 0 {
			return fmt.Errorf("record of kind %d: malformed payload", kind)
		}
		for i := 0; i < len(ids); i += 4 {
			id := binary.LittleEndian.Uint32(ids[i:])
			if _, ok := t.infos[id]; !ok {
				return fmt.Errorf("record of kind %d names container %d, which is not sealed", kind, id)
			}
		}
		for ; len(ids) > 0; ids = ids[4:] {
			t.remove(binary.LittleEndian.Uint32(ids))
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// replayTable replays a container log image: the table and the length of the
// valid prefix, or the *BadRecord that refuses it.
func replayTable(img []byte) (*table, int64, error) {
	t := &table{infos: make(map[uint32]ContainerInfo), live: FrameHeader + 1}
	valid, err := ReplayFrames(img, logMagic, t.apply)
	if err != nil {
		err = fmt.Errorf("%w; replayed up to there: %d containers", err, len(t.infos))
	}
	return t, valid, err
}

// appendTable appends the checkpoint image of a table: the header and one seal
// per container, in ID order.
func appendTable(buf []byte, storesData bool, infos map[uint32]ContainerInfo) ([]byte, error) {
	buf = appendHeader(buf, storesData)
	for _, id := range slices.Sorted(maps.Keys(infos)) {
		var err error
		if buf, err = appendSeal(buf, infos[id]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// refuseOldLayout refuses a directory written before the container log: a
// MANIFEST.json or wal.jsonl and no containers.log. Opening it as an empty
// store would sweep its containers as orphans.
func refuseOldLayout(fsys FS, dir string) error {
	if _, err := fsys.Stat(filepath.Join(dir, logName)); err == nil {
		return nil
	}
	for _, old := range []string{"MANIFEST.json", "wal.jsonl"} {
		if _, err := fsys.Stat(filepath.Join(dir, old)); err == nil {
			return fmt.Errorf("file backend: %s holds %s and no %s: it was written before the container log and this version does not read it; Export it with the version that wrote it",
				dir, old, logName)
		}
	}
	return nil
}
