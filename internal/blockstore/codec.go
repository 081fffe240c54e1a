package blockstore

import (
	"encoding/binary"

	"repro/internal/chunk"
)

// A container's metadata section — the tail of its seal record in
// containers.log, and a quarantined container's .meta — has a fixed
// little-endian binary layout:
//
//	u32 count
//	count × { fp[32] | u32 size | u64 segment | i64 offset }
//
// matching the simulated on-disk metadata-section entry the container log
// charges for (metaEntrySize bytes per chunk).
const metaEntryWire = chunk.FingerprintSize + 4 + 8 + 8

// EncodeMeta serialises a container's chunk metadata entries.
func EncodeMeta(entries []ChunkMeta) []byte {
	return appendMeta(make([]byte, 0, 4+len(entries)*metaEntryWire), entries)
}

func appendMeta(buf []byte, entries []ChunkMeta) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = append(buf, e.FP[:]...)
		buf = binary.LittleEndian.AppendUint32(buf, e.Size)
		buf = binary.LittleEndian.AppendUint64(buf, e.Segment)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Offset))
	}
	return buf
}

// DecodeMeta parses what EncodeMeta produced. Truncated or over-long input is
// reported as corruption.
func DecodeMeta(data []byte) ([]ChunkMeta, error) {
	r := NewPayload(data)
	count := r.U32()
	if r.Bad() || int64(len(r.Rest())) != int64(count)*metaEntryWire {
		return nil, Corruptf("meta: %d bytes do not hold %d entries", len(data), count)
	}
	entries := make([]ChunkMeta, count)
	for i := range entries {
		e := &entries[i]
		copy(e.FP[:], r.Take(chunk.FingerprintSize))
		e.Size, e.Segment, e.Offset = r.U32(), r.U64(), int64(r.U64())
	}
	return entries, nil
}
