package blockstore

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/chunk"
)

// fuzzMetaEntries builds a small valid metadata section for seeding.
func fuzzMetaEntries(n int) []ChunkMeta {
	entries := make([]ChunkMeta, n)
	var off int64
	for i := range entries {
		entries[i] = ChunkMeta{
			FP:      chunk.Of([]byte{byte(i), byte(i >> 8)}),
			Size:    uint32(100 + i),
			Segment: uint64(i / 4),
			Offset:  off,
		}
		off += int64(entries[i].Size)
	}
	return entries
}

// FuzzDecodeMeta feeds arbitrary bytes to the container-metadata decoder.
// Malformed or truncated input must come back as an error — never a panic,
// never an over-allocation crash — and anything that decodes must re-encode
// bit-identically (the wire format is canonical: a fixed-size header plus
// fixed-size entries, so decode∘encode is the identity on valid input).
func FuzzDecodeMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                              // short header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})               // count says 4 billion entries, no payload
	f.Add(EncodeMeta(nil))                              // empty but valid
	f.Add(EncodeMeta(fuzzMetaEntries(1)))               // one entry
	f.Add(EncodeMeta(fuzzMetaEntries(7)))               // several entries
	f.Add(EncodeMeta(fuzzMetaEntries(3))[:20])          // truncated mid-entry
	f.Add(append(EncodeMeta(fuzzMetaEntries(2)), 0xAA)) // trailing garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeMeta(data)
		if err != nil {
			return
		}
		re := EncodeMeta(entries)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %d bytes in, %d bytes out", len(data), len(re))
		}
	})
}

// FuzzContainerLogReplay throws arbitrary bytes at the file backend as its
// containers.log: torn tails, damage, records before the header, merges and
// quarantines of containers never sealed, counts of four billion in a dozen
// bytes. OpenFile must either refuse or open, never panic or allocate from a
// length the input has not vouched for; a store that opened must reopen
// after a checkpoint of itself (Sync) to the same containers.
func FuzzContainerLogReplay(f *testing.F) {
	info0, _ := mkInfo(0, 2)
	info1, _ := mkInfo(1, 3)
	seal0, _ := appendSeal(nil, info0)
	seal1, _ := appendSeal(nil, info1)
	merge, _ := appendRetire(nil, recMerge, []uint32{0}, "merged into 1")
	quar, _ := appendRetire(nil, recQuarantine, []uint32{1}, "torn")
	valid, _ := logOf(appendHeader(nil, false), seal0, seal1, merge, quar)
	flipped := bytes.Clone(valid)
	flipped[len(valid)/3] ^= 0x10
	const sealFixed = 4 + 8 + 8 + 8 // id, start, fill, end
	hugeMeta, _ := EndFrame(append(BeginFrame(nil, logMagic, recSeal), make([]byte, sealFixed)...), 0)
	hugeMeta = append(hugeMeta[:FrameHeader+sealFixed], 0xff, 0xff, 0xff, 0xff)
	hugeMeta, _ = EndFrame(hugeMeta, 0)
	catalogFrame, _ := EndFrame(append(BeginFrame(nil, [4]byte{'D', 'F', 'C', '1'}, 1), 0, 0), 0)

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                               // torn tail
	f.Add(appendHeader(nil, true))                            // a data-storing store with nothing sealed
	f.Add(flipped)                                            // damage with valid records after it
	f.Add(append(bytes.Clone(seal0), valid...))               // a record before the header
	f.Add(append(bytes.Clone(valid), valid[:14]...))          // a second header
	f.Add(append(appendHeader(nil, false), merge...))         // a merge of a container never sealed
	f.Add([]byte("DFB1\xff\xff\xff\xff\x02\x00\x00\x00\x00")) // a 4 GiB frame in 13 bytes
	f.Add(append(appendHeader(nil, false), hugeMeta...))      // a good CRC over a meta count of 4 G
	f.Add(append(appendHeader(nil, false), catalogFrame...))  // the other log's frame
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		writeStore(t, dir, log)
		fb, err := OpenFile(dir, false)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		ids := listIDs(t, fb)
		if err := fb.Sync(context.Background()); err != nil {
			t.Fatalf("checkpoint of what replayed: %v", err)
		}
		if err := fb.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		re, err := OpenFile(dir, false)
		if err != nil {
			t.Fatalf("reopen after checkpoint: %v", err)
		}
		defer re.Close() //nolint:errcheck // read-only reopen
		if again := listIDs(t, re); !slices.Equal(ids, again) {
			t.Fatalf("container set changed across a checkpoint: %v → %v", ids, again)
		}
	})
}

// FuzzWALReplay throws arbitrary bytes at the part of containers.log that is
// the write-ahead log proper: the records appended after a checkpoint of
// containers 0 and 1. OpenFile must refuse or open, never panic; a store that
// opened must cut any torn tail before its next append, so a container sealed
// right after replay is there, beside everything replay found, on reopen.
func FuzzWALReplay(f *testing.F) {
	info2, _ := mkInfo(2, 1)
	seal2, _ := appendSeal(nil, info2)
	reseal0, _ := appendSeal(nil, ContainerInfo{ID: 0})
	merge, _ := appendRetire(nil, recMerge, []uint32{0}, "merged into 2")
	quar, _ := appendRetire(nil, recQuarantine, []uint32{1}, "torn")
	unknown, _ := appendRetire(nil, recMerge, []uint32{7}, "never sealed")
	flipped := append(bytes.Clone(seal2), merge...)
	flipped[FrameHeader+2] ^= 0x10

	f.Add([]byte{})
	f.Add(seal2)
	f.Add(append(bytes.Clone(seal2), merge...))
	f.Add(quar)
	f.Add(reseal0)                                            // a re-seal after a failure
	f.Add(seal2[:len(seal2)-3])                               // torn tail
	f.Add(unknown)                                            // a merge of a container never sealed
	f.Add(appendHeader(nil, true))                            // a second header
	f.Add(flipped)                                            // damage with a valid record after it
	f.Add([]byte("DFB1\xff\xff\xff\xff\x02\x00\x00\x00\x00")) // a 4 GiB frame in 13 bytes
	f.Add([]byte("not a record at all"))
	f.Fuzz(func(t *testing.T, tail []byte) {
		info0, _ := mkInfo(0, 2)
		info1, _ := mkInfo(1, 3)
		checkpoint, err := appendTable(nil, false, map[uint32]ContainerInfo{0: info0, 1: info1})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		writeStore(t, dir, append(checkpoint, tail...))
		fb, err := OpenFile(dir, false)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		ids := listIDs(t, fb)
		next := uint32(100)
		for slices.Contains(ids, next) {
			next++
		}
		fresh, _ := mkInfo(next, 1)
		if err := fb.Seal(context.Background(), fresh, nil); err != nil {
			t.Fatalf("seal after replay: %v", err)
		}
		if err := fb.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		re, err := OpenFile(dir, false)
		if err != nil {
			t.Fatalf("reopen after a seal: %v", err)
		}
		defer re.Close() //nolint:errcheck // read-only reopen
		want := append(ids, next)
		slices.Sort(want)
		if got := listIDs(t, re); !slices.Equal(want, got) {
			t.Fatalf("container set after a seal and a reopen: %v, want %v", got, want)
		}
	})
}

// FuzzManifest covers the container table's checkpoint, the image that took
// the place of the old manifest: any bytes that replay cleanly must checkpoint
// to exactly live bytes (the size the log's compaction threshold is judged
// by), and that checkpoint must replay, whole, to the same table.
func FuzzManifest(f *testing.F) {
	info0, _ := mkInfo(0, 2)
	info1, _ := mkInfo(1, 3)
	seal0, _ := appendSeal(nil, info0)
	seal1, _ := appendSeal(nil, info1)
	empty, _ := appendSeal(nil, ContainerInfo{ID: 5})
	merge, _ := appendRetire(nil, recMerge, []uint32{0}, "merged into 1")
	checkpoint, _ := appendTable(nil, false, map[uint32]ContainerInfo{0: info0, 1: info1})
	dataStore, _ := appendTable(nil, true, map[uint32]ContainerInfo{1: info1})
	resealed, _ := logOf(appendHeader(nil, false), seal0, seal1, seal0, merge)

	f.Add([]byte{})
	f.Add(checkpoint)
	f.Add(dataStore)
	f.Add(resealed) // a log that is not a checkpoint: a re-seal and a merge
	f.Add(checkpoint[:len(checkpoint)-7])
	f.Add(append(appendHeader(nil, false), empty...)) // a container with no entries
	f.Fuzz(func(t *testing.T, img []byte) {
		tb, _, err := replayTable(img)
		if err != nil {
			return
		}
		cp, err := appendTable(nil, tb.storesData, tb.infos)
		if err != nil {
			t.Fatalf("checkpoint of what replayed: %v", err)
		}
		if int64(len(cp)) != tb.live {
			t.Fatalf("checkpoint is %d bytes, table counts %d live", len(cp), tb.live)
		}
		again, valid, err := replayTable(cp)
		if err != nil || valid != int64(len(cp)) {
			t.Fatalf("checkpoint replays %d of %d bytes: %v", valid, len(cp), err)
		}
		if again.storesData != tb.storesData || !reflect.DeepEqual(again.infos, tb.infos) {
			t.Fatalf("table changed across its checkpoint: %d → %d containers", len(tb.infos), len(again.infos))
		}
	})
}
