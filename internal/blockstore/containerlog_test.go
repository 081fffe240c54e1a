package blockstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// must unwraps a record builder's result: the tests build only records the
// builders accept.
func must(rec []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return rec
}

// logOf concatenates records into a log image and returns where each starts.
func logOf(recs ...[]byte) (img []byte, starts []int) {
	for _, rec := range recs {
		starts = append(starts, len(img))
		img = append(img, rec...)
	}
	return img, starts
}

func sealRec(t testing.TB, id uint32) []byte {
	info, _ := mkInfo(id, 3+int(id))
	return must(appendSeal(nil, info))
}

// writeStore makes dir a store directory whose container log is img.
func writeStore(t testing.TB, dir string, img []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, containerDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), img, 0o644); err != nil {
		t.Fatal(err)
	}
}

func listIDs(t testing.TB, b Backend) []uint32 {
	t.Helper()
	infos, err := b.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint32, len(infos))
	for i, info := range infos {
		ids[i] = info.ID
	}
	return ids
}

// TestContainerLogBitFlipRefusesOpen flips every byte of every record that
// has acknowledged records after it — the header, seals, a merge, a
// quarantine — and opens the directory: OpenFile refuses, names the record's
// offset, and leaves the log as it found it. The same flip in the last record
// is a torn tail, cut off on open.
func TestContainerLogBitFlipRefusesOpen(t *testing.T) {
	img, starts := logOf(appendHeader(nil, false), sealRec(t, 0), sealRec(t, 1), sealRec(t, 2),
		must(appendRetire(nil, recMerge, []uint32{0, 2}, "merged into 3")), sealRec(t, 3),
		must(appendRetire(nil, recQuarantine, []uint32{1}, "hash mismatch")), sealRec(t, 4))
	dir := t.TempDir()
	for rec := 0; rec < len(starts)-1; rec++ {
		for at := starts[rec]; at < starts[rec+1]; at++ {
			bad := bytes.Clone(img)
			bad[at] ^= 0x20
			writeStore(t, dir, bad)
			f, err := OpenFile(dir, false)
			if err == nil {
				f.Close() //nolint:errcheck // the test has failed
				t.Fatalf("record %d, byte %d flipped: the store opened", rec, at)
			}
			var br *BadRecord
			if !errors.As(err, &br) || br.Offset != int64(starts[rec]) || !strings.Contains(err.Error(), fmt.Sprint("offset ", starts[rec])) {
				t.Fatalf("record %d, byte %d flipped: %v, want the offset %d named", rec, at, err, starts[rec])
			}
			if after, _ := os.ReadFile(filepath.Join(dir, logName)); !bytes.Equal(after, bad) {
				t.Fatalf("record %d, byte %d flipped: the refused open changed the log", rec, at)
			}
		}
	}
	last := starts[len(starts)-1]
	for at := last; at < len(img); at++ {
		bad := bytes.Clone(img)
		bad[at] ^= 0x20
		writeStore(t, dir, bad)
		f, err := OpenFile(dir, false)
		if err != nil {
			t.Fatalf("byte %d of the last record flipped: %v", at, err)
		}
		if ids := listIDs(t, f); fmt.Sprint(ids) != "[3]" || f.log.Size() != int64(last) {
			t.Fatalf("byte %d of the last record flipped: containers %v, log %d bytes, want [3] and %d", at, ids, f.log.Size(), last)
		}
		f.Close() //nolint:errcheck // checked above
	}
}

// TestContainerLogRecordsThatCannotApplyAreRefused: a record that passes its
// CRC and cannot be applied is damage wherever it sits.
func TestContainerLogRecordsThatCannotApplyAreRefused(t *testing.T) {
	frame := func(kind byte, payload ...byte) []byte {
		return must(EndFrame(append(BeginFrame(nil, logMagic, kind), payload...), 0))
	}
	head := appendHeader(nil, true)
	shortMeta := must(appendSeal(nil, ContainerInfo{ID: 5, Entries: fuzzMetaEntries(2)}))
	shortMeta = must(EndFrame(shortMeta[:len(shortMeta)-3], 0))
	for name, recs := range map[string][][]byte{
		"a seal before the header":       {sealRec(t, 0)},
		"a second header":                {head, sealRec(t, 0), appendHeader(nil, false)},
		"a merge of an unsealed id":      {head, sealRec(t, 0), must(appendRetire(nil, recMerge, []uint32{0, 9}, "m"))},
		"a quarantine of an unsealed id": {head, sealRec(t, 0), must(appendRetire(nil, recQuarantine, []uint32{9}, "q"))},
		"an unknown kind":                {head, frame(9, 1, 2, 3)},
		"a seal whose meta is short":     {head, shortMeta},
		"a merge longer than it says":    {head, sealRec(t, 0), frame(recMerge, 0xff, 0xff, 0xff, 0xff)},
		"a header with trailing bytes":   {frame(recHeader, 1, 0)},
	} {
		img, starts := logOf(recs...)
		img = append(img, sealRec(t, 7)...) // acknowledged state after it
		_, _, err := replayTable(img)
		var br *BadRecord
		if !errors.As(err, &br) || br.Offset != int64(starts[len(starts)-1]) {
			t.Errorf("%s: %v, want the record at %d refused", name, err, starts[len(starts)-1])
		}
	}
}

// crashImage copies the store directory pre as it was before an operation,
// plus the data files the operation added — a seal's is renamed in before its
// record is written — into a fresh directory, with log as its container log.
func crashImage(t *testing.T, pre, post string, log []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(pre)); err != nil {
		t.Fatal(err)
	}
	added, _ := filepath.Glob(filepath.Join(post, containerDir, "*.data"))
	for _, p := range added {
		dst := filepath.Join(dir, containerDir, filepath.Base(p))
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestContainerLogTornTailAtEveryOffset cuts the log at every byte of its
// last record — a seal, a merge, a quarantine — over the directory as the
// crash would leave it: the store reopens with exactly the containers
// acknowledged before it, data and all, the log cut back to where the record
// began, no data file the table does not name, and the next seal lands there.
func TestContainerLogTornTailAtEveryOffset(t *testing.T) {
	ctx := context.Background()
	for _, row := range []struct {
		name string
		op   func(f *File) error
	}{
		{"seal", func(f *File) error { info, data := mkInfo(4, 7); return f.Seal(ctx, info, data) }},
		{"merge", func(f *File) error { return f.Drop(ctx, []uint32{1, 2}, "merged into 4") }},
		{"quarantine", func(f *File) error { return f.Quarantine(ctx, 3, "torn") }},
	} {
		t.Run(row.name, func(t *testing.T) {
			pre := t.TempDir()
			f, err := OpenFile(pre, true)
			if err != nil {
				t.Fatal(err)
			}
			want := sealN(t, f, 4)
			before := f.log.Size()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			post := t.TempDir()
			if err := os.CopyFS(post, os.DirFS(pre)); err != nil {
				t.Fatal(err)
			}
			g, err := OpenFile(post, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := row.op(g); err != nil {
				t.Fatal(err)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			log, err := os.ReadFile(filepath.Join(post, logName))
			if err != nil || int64(len(log)) <= before {
				t.Fatalf("the %s appended nothing to a %d-byte log (%d bytes now, %v)", row.name, before, len(log), err)
			}
			for cut := before; cut < int64(len(log)); cut++ {
				dir := crashImage(t, pre, post, log[:cut])
				re, err := OpenFile(dir, true)
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				checkRoundTrip(t, re, want)
				if fi, err := os.Stat(filepath.Join(dir, logName)); err != nil || fi.Size() != before {
					t.Fatalf("cut at %d: the log reopened at %v bytes, want %d (%v)", cut, fi.Size(), before, err)
				}
				if files, _ := filepath.Glob(filepath.Join(dir, containerDir, "*.data")); len(files) != len(want) {
					t.Fatalf("cut at %d: data files %v, want one per acknowledged container", cut, files)
				}
				if cut == int64(len(log))-1 {
					info, data := mkInfo(9, 2)
					if err := re.Seal(ctx, info, data); err != nil {
						t.Fatal(err)
					}
					if re.log.Size() != before+sealSize(info) {
						t.Fatalf("the next seal left a %d-byte log, want %d", re.log.Size(), before+sealSize(info))
					}
				}
				re.Close() //nolint:errcheck // checked above
			}
		})
	}
}

// TestSealDataOrphanIsSwept: a data file renamed in whose record never made
// it — what the seal-data crash leaves — is removed by the next open, and the
// containers the log names are not touched.
func TestSealDataOrphanIsSwept(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, f, 3)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, containerDir, "000003.data")
	odd := filepath.Join(dir, containerDir, "notes.txt") // not a container's: left alone
	for _, p := range []string{orphan, odd} {
		if err := os.WriteFile(p, []byte("never recorded"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck // test teardown
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the orphan survived the open: %v", err)
	}
	if _, err := os.Stat(odd); err != nil {
		t.Fatalf("a file that is no container's was removed: %v", err)
	}
	checkRoundTrip(t, re, want)
}

// TestOldLayoutIsRefusedByName: a directory from before the container log —
// MANIFEST.json or wal.jsonl, no containers.log — is refused, naming what it
// found first, and every file in it keeps its size and mtime; nothing is
// created.
func TestOldLayoutIsRefusedByName(t *testing.T) {
	for _, old := range [][]string{{"MANIFEST.json"}, {"wal.jsonl"}, {"MANIFEST.json", "wal.jsonl"}} {
		dir := t.TempDir()
		files := append([]string{"containers/000000.meta", "containers/000000.data"}, old...)
		if err := os.Mkdir(filepath.Join(dir, containerDir), 0o755); err != nil {
			t.Fatal(err)
		}
		stamp := time.Now().Add(-time.Hour).Truncate(time.Second)
		before := map[string]fs.FileInfo{}
		for _, name := range files {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, []byte("old "+name), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(p, stamp, stamp); err != nil {
				t.Fatal(err)
			}
			before[name], _ = os.Stat(p)
		}
		_, err := OpenFile(dir, true)
		if err == nil || !strings.Contains(err.Error(), logName) {
			t.Fatalf("%v: OpenFile of an old-layout directory: %v", old, err)
		}
		if !strings.Contains(err.Error(), old[0]) {
			t.Fatalf("%v: the refusal does not name %s: %v", old, old[0], err)
		}
		for name, fi := range before {
			now, err := os.Stat(filepath.Join(dir, name))
			if err != nil || now.Size() != fi.Size() || !now.ModTime().Equal(fi.ModTime()) {
				t.Fatalf("%v: the refused open touched %s (%v)", old, name, err)
			}
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1+len(old) {
			t.Fatalf("%v: the refused open left %d entries in the directory", old, len(ents))
		}
	}
}

// TestContainerLogCheckpointRule: drops make the log due a checkpoint, which
// happens by the rule and leaves the table's records and nothing else; Sync
// checkpoints at once; what a checkpoint leaves reopens as the same store.
func TestContainerLogCheckpointRule(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f, err := OpenFile(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for id := uint32(0); ; id++ {
		info, _ := mkInfo(id, 600) // ≈ 31 KB records: the slack is 33 of them
		if err := f.Seal(ctx, info, nil); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
		if len(want) > 2 {
			if err := f.Drop(ctx, want[:1], "merged"); err != nil {
				t.Fatal(err)
			}
			want = want[1:]
			if f.log.Size() == f.live {
				break // the drop checkpointed
			}
		}
		if f.log.Size() > 2*f.live+checkpointSlack {
			t.Fatalf("seal %d: the log is %d bytes over %d live", id, f.log.Size(), f.live)
		}
		if id > 200 {
			t.Fatal("two hundred seals and drops never checkpointed the log")
		}
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("the checkpoint left temp files: %v", left)
	}
	info, _ := mkInfo(1000, 2)
	if err := f.Seal(ctx, info, nil); err != nil {
		t.Fatal(err)
	}
	want = append(want, 1000)
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if f.log.Size() != f.live {
		t.Fatalf("after Sync the log is %d bytes, the table %d", f.log.Size(), f.live)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck // test teardown
	if got := listIDs(t, re); fmt.Sprint(got) != fmt.Sprint(want) || re.StoresData() || re.log.Size() != re.live {
		t.Fatalf("after the reopen: %v, storesData %v, log %d / live %d; want %v", got, re.StoresData(), re.log.Size(), re.live, want)
	}
}
