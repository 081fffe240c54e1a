package blockstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/chunk"
)

func mkInfo(id uint32, n int) (ContainerInfo, []byte) {
	entries := make([]ChunkMeta, n)
	var fill int64
	var data []byte
	for i := range entries {
		payload := bytes.Repeat([]byte{byte(id), byte(i)}, 64+i)
		fp := chunk.Fingerprint{}
		copy(fp[:], fmt.Sprintf("fp-%d-%d", id, i))
		entries[i] = ChunkMeta{
			FP:      fp,
			Size:    uint32(len(payload)),
			Segment: uint64(id)*100 + uint64(i),
			Offset:  int64(id)*1000 + fill,
		}
		fill += int64(len(payload))
		data = append(data, payload...)
	}
	info := ContainerInfo{
		ID:       id,
		Start:    int64(id) * 4096,
		DataFill: fill,
		End:      int64(id)*4096 + 256 + fill,
		Entries:  entries,
	}
	return info, data
}

func sealN(t *testing.T, b Backend, n int) map[uint32][]byte {
	t.Helper()
	want := make(map[uint32][]byte)
	for id := uint32(0); id < uint32(n); id++ {
		info, data := mkInfo(id, 3+int(id))
		if err := b.Seal(context.Background(), info, data); err != nil {
			t.Fatalf("seal %d: %v", id, err)
		}
		want[id] = data
	}
	return want
}

// kill abandons f as a killed process leaves it: nothing is flushed or
// checkpointed, and the kernel drops the directory lock.
func kill(f *File) { f.lock.Close() }

func checkRoundTrip(t *testing.T, b Backend, want map[uint32][]byte) {
	t.Helper()
	ctx := context.Background()
	infos, err := b.List(ctx)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(infos) != len(want) {
		t.Fatalf("list: got %d containers, want %d", len(infos), len(want))
	}
	for _, info := range infos {
		wantInfo, _ := mkInfo(info.ID, 3+int(info.ID))
		if info.Start != wantInfo.Start || info.DataFill != wantInfo.DataFill || info.End != wantInfo.End {
			t.Fatalf("container %d geometry mismatch: got %+v", info.ID, info)
		}
		if len(info.Entries) != len(wantInfo.Entries) {
			t.Fatalf("container %d: %d entries, want %d", info.ID, len(info.Entries), len(wantInfo.Entries))
		}
		for i, e := range info.Entries {
			if e != wantInfo.Entries[i] {
				t.Fatalf("container %d entry %d mismatch: %+v vs %+v", info.ID, i, e, wantInfo.Entries[i])
			}
		}
		data, err := b.ReadData(ctx, info.ID)
		if err != nil {
			t.Fatalf("read %d: %v", info.ID, err)
		}
		if b.StoresData() {
			if !bytes.Equal(data, want[info.ID]) {
				t.Fatalf("container %d data mismatch", info.ID)
			}
		} else if int64(len(data)) != info.DataFill {
			t.Fatalf("container %d hole read: %d bytes, want %d", info.ID, len(data), info.DataFill)
		}
	}
}

func TestSimRoundTrip(t *testing.T) {
	b := NewSim(true)
	want := sealN(t, b, 4)
	checkRoundTrip(t, b, want)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadData(context.Background(), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v, want ErrClosed", err)
	}
}

func TestFileRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, b, 5)
	checkRoundTrip(t, b, want)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	checkRoundTrip(t, re, want)
}

// TestFileReplayWithoutClose: a store abandoned without Close — killed —
// reopens from its log alone with every acknowledged seal. (A torn last
// record is TestContainerLogTornTailAtEveryOffset.)
func TestFileReplayWithoutClose(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, b, 3)
	// Abandon b without Close — its seal records are already fdatasync'd.
	kill(b)

	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	checkRoundTrip(t, re, want)
}

func TestFileTornDataDetected(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	sealN(t, b, 2)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Truncate container 1's data file behind the store's back.
	path := filepath.Join(dir, "containers", "000001.data")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := re.ReadData(context.Background(), 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn data read: %v, want ErrCorrupt", err)
	}
	if _, err := re.ReadData(context.Background(), 0); err != nil {
		t.Fatalf("intact container must still read: %v", err)
	}
}

func TestFileQuarantine(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, b, 3)
	if err := b.Quarantine(context.Background(), 1, "test damage"); err != nil {
		t.Fatal(err)
	}
	delete(want, 1)
	infos, err := b.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("after quarantine: %d containers listed, want 2", len(infos))
	}
	for _, suffix := range []string{"meta", "data", "reason"} {
		p := filepath.Join(dir, "quarantine", "000001."+suffix)
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("quarantined %s missing: %v", suffix, err)
		}
	}
	info, _ := mkInfo(1, 4)
	if raw, _ := os.ReadFile(filepath.Join(dir, "quarantine", "000001.meta")); !bytes.Equal(raw, EncodeMeta(info.Entries)) {
		t.Fatal("the quarantined metadata is not the table entry's")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Quarantine survives reopen.
	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkRoundTrip(t, re, want)
}

func TestMetaCodecRoundTrip(t *testing.T) {
	info, _ := mkInfo(9, 7)
	enc := EncodeMeta(info.Entries)
	dec, err := DecodeMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(info.Entries) {
		t.Fatalf("decoded %d entries, want %d", len(dec), len(info.Entries))
	}
	for i := range dec {
		if dec[i] != info.Entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if _, err := DecodeMeta(enc[:len(enc)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated meta: %v, want ErrCorrupt", err)
	}
}

func TestMetadataOnlyFileBackend(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, b, 3)
	_ = want
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir, true) // argument loses: the log's header says holes
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.StoresData() {
		t.Fatal("the header's storesData=false must win over the reopen argument")
	}
	data, err := re.ReadData(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, _ := mkInfo(2, 5)
	if int64(len(data)) != wantInfo.DataFill {
		t.Fatalf("hole read %d bytes, want %d", len(data), wantInfo.DataFill)
	}
}

// TestSimReadDataIsASharedView pins the read-only contract from the Sim
// side: every read of a sealed container returns the one sealed section,
// not a copy, a re-seal installs a new section without touching a view
// handed out earlier, and metadata-only stores — Sim's and File's alike —
// serve all their reads out of one zero buffer.
func TestSimReadDataIsASharedView(t *testing.T) {
	ctx := context.Background()
	b := NewSim(true)
	info, data := mkInfo(0, 4)
	if err := b.Seal(ctx, info, data); err != nil {
		t.Fatal(err)
	}
	first, err := b.ReadData(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	ranged, err := b.ReadDataRange(ctx, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] != &ranged[0][0] {
		t.Fatal("two reads of one sealed container returned different arrays")
	}
	if &first[0] == &data[0] {
		t.Fatal("Seal retained the caller's buffer")
	}
	if Mapped(first) {
		t.Fatal("a sealed Sim section is a mapping Release would unmap")
	}
	resealed := bytes.Repeat([]byte{0xEE}, len(data))
	if err := b.Seal(ctx, info, resealed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, data) {
		t.Fatal("re-seal wrote into a section a reader still holds")
	}
	if again, _ := b.ReadData(ctx, 0); !bytes.Equal(again, resealed) {
		t.Fatal("re-seal not visible to a new read")
	}

	fileHole, err := OpenFile(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer fileHole.Close()
	for name, hole := range map[string]Backend{"sim": NewSim(false), "file": fileHole} {
		small, _ := mkInfo(1, 2)
		big, _ := mkInfo(2, 6)
		for _, in := range []ContainerInfo{small, big} {
			if err := hole.Seal(ctx, in, nil); err != nil {
				t.Fatal(err)
			}
		}
		z1, _ := hole.ReadData(ctx, 1)
		z2, _ := hole.ReadData(ctx, 2) // larger: the shared buffer grows
		z3, _ := hole.ReadData(ctx, 1)
		if int64(len(z1)) != small.DataFill || int64(len(z2)) != big.DataFill || int64(len(z3)) != small.DataFill {
			t.Fatalf("%s: hole reads %d/%d/%d bytes, want %d/%d/%d", name, len(z1), len(z2), len(z3), small.DataFill, big.DataFill, small.DataFill)
		}
		if &z2[0] != &z3[0] {
			t.Fatalf("%s: metadata-only reads do not share one zero buffer", name)
		}
		for _, z := range [][]byte{z1, z2, z3} {
			if len(bytes.Trim(z, "\x00")) != 0 {
				t.Fatalf("%s: metadata-only read is not zero-filled", name)
			}
			if Mapped(z) {
				t.Fatalf("%s: a zero view is a mapping Release would unmap", name)
			}
		}
	}
}

// TestDirSyncErrorClassification: only "this filesystem does not fsync
// directories" is tolerated; a failed fsync is an error SyncDir returns.
func TestDirSyncErrorClassification(t *testing.T) {
	wrap := func(errno syscall.Errno) error {
		return &os.PathError{Op: "sync", Path: "/d", Err: errno}
	}
	for _, tc := range []struct {
		err         error
		unsupported bool
	}{
		{wrap(syscall.EINVAL), true},
		{wrap(syscall.ENOTSUP), true},
		{wrap(syscall.EIO), false},
		{wrap(syscall.ENOSPC), false},
		{os.ErrInvalid, false}, // a closed or nil *os.File, not EINVAL
	} {
		if got := dirSyncUnsupported(tc.err); got != tc.unsupported {
			t.Errorf("dirSyncUnsupported(%v) = %v, want %v", tc.err, got, tc.unsupported)
		}
	}
	if err := OS.SyncDir(t.TempDir()); err != nil {
		t.Fatalf("SyncDir of a real directory: %v", err)
	}
	if err := OS.SyncDir(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("SyncDir of a missing directory must fail")
	}
}
