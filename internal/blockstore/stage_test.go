package blockstore

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// bigInfo is a container description over a seeded data section of n bytes.
func bigInfo(id uint32, n int, seed int64) (ContainerInfo, []byte) {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	info, _ := mkInfo(id, 4)
	info.DataFill = int64(n)
	info.End = info.Start + 256 + int64(n)
	return info, data
}

// stagePieces stages data[:upto] into f in pieces of the given size.
func stagePieces(f *File, id uint32, data []byte, upto, piece int) {
	for off := 0; off < upto; off += piece {
		f.Stage(id, int64(off), data[off:min(off+piece, upto)])
	}
}

// tempFiles lists every temp file under root.
func tempFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && strings.Contains(d.Name(), ".tmp") {
			out = append(out, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}

// storeFiles reads every file a File backend keeps for its containers, plus
// the container log, by name relative to the root.
func storeFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, pat := range []string{logName, containerDir + "/*"} {
		paths, _ := filepath.Glob(filepath.Join(root, pat))
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, p)
			out[rel] = raw
		}
	}
	return out
}

func counterNamed(name string, labels ...string) int64 {
	return telemetry.NewCounter(telemetry.Name(name, labels...), "").Value()
}

// TestStagedSealEqualsWholeSeal: whatever was staged, and however it went
// wrong, Seal leaves exactly the files, seal record and table entry that sealing
// the same container with nothing staged leaves — Seal's data is the truth.
func TestStagedSealEqualsWholeSeal(t *testing.T) {
	ctx := context.Background()
	const n = 1<<20 + 12345
	cases := []struct {
		name string
		// stage prepares f for the Seal of (info, data) and returns the data
		// Seal is to be handed.
		stage    func(t *testing.T, f *File, id uint32, data []byte) []byte
		staged   int64 // container_seals_staged_total moves by
		restaged string
	}{
		{name: "nothing staged",
			stage: func(_ *testing.T, _ *File, _ uint32, data []byte) []byte { return data }},
		{name: "a prefix staged", staged: 1,
			stage: func(_ *testing.T, f *File, id uint32, data []byte) []byte {
				stagePieces(f, id, data, 3*(256<<10), 256<<10)
				return data
			}},
		{name: "everything staged", staged: 1,
			stage: func(_ *testing.T, f *File, id uint32, data []byte) []byte {
				stagePieces(f, id, data, len(data), 100_000)
				return data
			}},
		{name: "a stage call failed", restaged: "stage_error",
			stage: func(t *testing.T, f *File, id uint32, data []byte) []byte {
				f.Stage(id, 0, data[:4096])
				f.staged[id].tmp.f.Close() // the next write fails
				f.Stage(id, 4096, data[4096:8192])
				f.Stage(id, 8192, data[8192:9000]) // and nothing is staged after a failure
				if st := f.staged[id]; !st.bad || st.n != 4096 {
					t.Fatalf("after a failed write: bad=%v n=%d", st.bad, st.n)
				}
				return data
			}},
		{name: "a piece out of order", restaged: "stage_error",
			stage: func(_ *testing.T, f *File, id uint32, data []byte) []byte {
				f.Stage(id, 0, data[:4096])
				f.Stage(id, 8192, data[8192:9000])
				return data
			}},
		{name: "the staged prefix differs in one byte", restaged: "mismatch",
			stage: func(_ *testing.T, f *File, id uint32, data []byte) []byte {
				other := append([]byte(nil), data[:600_000]...)
				other[333_333] ^= 0x40
				stagePieces(f, id, other, len(other), 256<<10)
				return data
			}},
		{name: "data shorter than what was staged", restaged: "short_data",
			stage: func(_ *testing.T, f *File, id uint32, data []byte) []byte {
				stagePieces(f, id, data, 900_000, 256<<10)
				return data[:len(data)/2] // what Fault's torn seal passes down
			}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info, data := bigInfo(7, n, int64(i)+1)
			plainDir, stagedDir := t.TempDir(), t.TempDir()
			plain, err := OpenFile(plainDir, true)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close() //nolint:errcheck // test teardown
			f, err := OpenFile(stagedDir, true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close() //nolint:errcheck // test teardown

			staged0 := counterNamed("container_seals_staged_total")
			var restaged0 int64
			if tc.restaged != "" {
				restaged0 = counterNamed("container_seals_restaged_total", "reason", tc.restaged)
			}
			handed := tc.stage(t, f, info.ID, data)
			if err := plain.Seal(ctx, info, handed); err != nil {
				t.Fatal(err)
			}
			if err := f.Seal(ctx, info, handed); err != nil {
				t.Fatal(err)
			}
			if got := counterNamed("container_seals_staged_total") - staged0; got != tc.staged {
				t.Errorf("container_seals_staged_total moved by %d, want %d", got, tc.staged)
			}
			if tc.restaged != "" {
				if got := counterNamed("container_seals_restaged_total", "reason", tc.restaged) - restaged0; got != 1 {
					t.Errorf("container_seals_restaged_total{reason=%q} moved by %d, want 1", tc.restaged, got)
				}
			}

			want, got := storeFiles(t, plainDir), storeFiles(t, stagedDir)
			if len(want) != 2 || len(got) != len(want) {
				t.Fatalf("files: unstaged %d, staged %d, want 2 each", len(want), len(got))
			}
			for name, raw := range want {
				if !bytes.Equal(got[name], raw) {
					t.Errorf("%s differs from the unstaged seal's (%d bytes vs %d)", name, len(got[name]), len(raw))
				}
			}
			if left := tempFiles(t, stagedDir); len(left) != 0 {
				t.Errorf("temp files left after Seal: %v", left)
			}
			if len(f.staged) != 0 {
				t.Errorf("%d staged sections left after Seal", len(f.staged))
			}
			wantList, _ := plain.List(ctx)
			gotList, _ := f.List(ctx)
			if len(gotList) != 1 || gotList[0].DataFill != wantList[0].DataFill || len(gotList[0].Entries) != len(wantList[0].Entries) {
				t.Errorf("List: %+v, unstaged %+v", gotList, wantList)
			}
			// A torn section reads as torn, exactly as it does unstaged.
			_, perr := plain.ReadData(ctx, info.ID)
			read, ferr := f.ReadData(ctx, info.ID)
			if errors.Is(perr, ErrCorrupt) != errors.Is(ferr, ErrCorrupt) || (len(handed) < len(data)) != errors.Is(ferr, ErrCorrupt) {
				t.Errorf("ReadData: staged %v, unstaged %v", ferr, perr)
			}
			if ferr == nil && !bytes.Equal(read, data) {
				t.Error("ReadData returns other bytes than were sealed")
			}

			// Sealing the id again finds nothing staged and overwrites.
			info2, data2 := bigInfo(info.ID, n/3, 99)
			if err := f.Seal(ctx, info2, data2); err != nil {
				t.Fatal(err)
			}
			if read, err := f.ReadData(ctx, info.ID); err != nil || !bytes.Equal(read, data2) {
				t.Errorf("after a second Seal of the id: %v", err)
			}
		})
	}
}

// TestUnstageAndCloseLeaveNothingOpen: a container given up, and a backend
// closed over containers nobody sealed, leave no temp file and no descriptor.
func TestUnstageAndCloseLeaveNothingOpen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	fds := openFDs(t)
	_, data := bigInfo(1, 300_000, 5)
	for id := uint32(1); id <= 3; id++ {
		stagePieces(f, id, data, len(data), 64<<10)
	}
	if got := len(tempFiles(t, dir)); got != 3 || openFDs(t) != fds+3 {
		t.Fatalf("three containers staged: %d temp files, %d descriptors more", got, openFDs(t)-fds)
	}
	f.Unstage(2)
	f.Unstage(2) // twice is nothing
	f.Unstage(9) // never staged
	if got := len(tempFiles(t, dir)); got != 2 || openFDs(t) != fds+2 {
		t.Fatalf("after Unstage: %d temp files, %d descriptors more", got, openFDs(t)-fds)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if left := tempFiles(t, dir); len(left) != 0 || openFDs(t) != fds-2 { // the log's and the lock's went too
		t.Fatalf("after Close: temp files %v, %d descriptors against %d before staging", left, openFDs(t), fds)
	}
	f.Stage(4, 0, data) // a straggler after Close stages nothing
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("Stage after Close left %v", left)
	}

	// A metadata-only store has no data files to stage into.
	m, err := OpenFile(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //nolint:errcheck // test teardown
	m.Stage(1, 0, data)
	if left := tempFiles(t, m.Dir()); len(left) != 0 {
		t.Fatalf("metadata-only store staged %v", left)
	}
}

// TestOpenFileSweepsTemps: what a crash leaves of writes that never reached
// their rename — a container half-staged, a torn WriteFileAtomic — is gone
// after the next open, and the store is what it was without them.
func TestOpenFileSweepsTemps(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, f, 3)
	_, data := bigInfo(3, 700_000, 8)
	stagePieces(f, 3, data, 600_000, 256<<10) // container 3 is still filling when the process dies

	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck // the original is done with
	for _, torn := range []string{".containers.log.tmp123", containerDir + "/.000001.data.tmp9", containerDir + "/.000004.data.tmp77"} {
		if err := os.WriteFile(filepath.Join(crashed, torn), []byte("half a fi"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tempFiles(t, crashed)); got != 4 {
		t.Fatalf("the crashed copy holds %d temp files, want 4 (one staged, three torn)", got)
	}
	g, err := OpenFile(crashed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck // test teardown
	if left := tempFiles(t, crashed); len(left) != 0 {
		t.Fatalf("temp files survived the open: %v", left)
	}
	checkRoundTrip(t, g, want)
}

// TestWriteFileAtomicInPieces: content larger than one write call arrives
// whole, replaces what was there, and a failure leaves the old file and no
// temp.
func TestWriteFileAtomicInPieces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	_, data := bigInfo(0, 2*writePiece+777, 3)
	for _, content := range [][]byte{[]byte("old"), data, nil} {
		if err := WriteFileAtomic(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("read back %d bytes of %d: %v", len(got), len(content), err)
		}
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "blob"), data, 0o644); err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "sub"), data, 0o644); err == nil { // the rename fails, after the write
		t.Fatal("renaming over a directory succeeded")
	}
	if left := tempFiles(t, dir); len(left) != 0 {
		t.Fatalf("temp files left: %v", left)
	}
}

// TestFileOpenIsExclusive: a second OpenFile of a directory an open File
// holds is refused by name, and sweeps nothing on its way out — the first
// store's staged sections are still there for it to seal. Once the first is
// closed, the directory opens again.
func TestFileOpenIsExclusive(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	info, data := bigInfo(0, 200_000, 3)
	stagePieces(f, 0, data, len(data)/2, 64<<10)
	if got := len(tempFiles(t, dir)); got != 1 {
		t.Fatalf("one container staged: %d temp files", got)
	}

	g, err := OpenFile(dir, true)
	if err == nil {
		g.Close()
		t.Fatal("a second OpenFile of an open store directory succeeded")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("refusal %q does not name the directory", err)
	}
	if got := len(tempFiles(t, dir)); got != 1 {
		t.Fatalf("the refused open left %d of the first store's staged sections, want 1", got)
	}
	if err := f.Seal(context.Background(), info, data); err != nil {
		t.Fatalf("seal over the staged section after the refused open: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err = OpenFile(dir, true)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer g.Close()
	if got, err := g.ReadData(context.Background(), 0); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("the container sealed over its staged section does not read back (%v)", err)
	}
}
