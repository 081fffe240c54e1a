package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func sampleRecipe(label string, n int) *chunk.Recipe {
	r := &chunk.Recipe{Label: label}
	for i := 0; i < n; i++ {
		fp := chunk.Of([]byte{byte(i), byte(i >> 8), byte(len(label))})
		r.Append(fp, uint32(100+i), chunk.Location{
			Container: uint32(i / 10),
			Segment:   uint64(i / 5),
			Offset:    int64(i) * 512,
			Size:      uint32(100 + i),
		})
	}
	return r
}

func sampleEntry(label string, n int) Entry {
	return Entry{Label: label, Stats: []byte(fmt.Sprintf(`{"Label":%q,"Chunks":%d}`, label, n)), Recipe: sampleRecipe(label, n)}
}

// clone is a deep copy: the model's state must not share refs with what the
// log was given.
func clone(e Entry) Entry {
	return Entry{Label: e.Label, Stats: bytes.Clone(e.Stats),
		Recipe: &chunk.Recipe{Label: e.Recipe.Label, Refs: slices.Clone(e.Recipe.Refs)}}
}

func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Label != w.Label || g.Recipe.Label != w.Label || !bytes.Equal(g.Stats, w.Stats) {
			t.Fatalf("%s: entry %d is %q %s, want %q %s", what, i, g.Label, g.Stats, w.Label, w.Stats)
		}
		if !slices.Equal(g.Recipe.Refs, w.Recipe.Refs) {
			t.Fatalf("%s: entry %d (%q): refs differ", what, i, w.Label)
		}
	}
}

// replayFile replays the file at path as a fresh reader would.
func replayFile(t *testing.T, path string) ([]Entry, int64, int64) {
	t.Helper()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, valid, err := Replay(img)
	if err != nil {
		t.Fatal(err)
	}
	return entries, valid, int64(len(img))
}

func replayBytes(img []byte) ([]Entry, int64, error) { return Replay(img) }

func mustOpen(t *testing.T, path string) (*Log, []Entry) {
	t.Helper()
	l, entries, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() }) //nolint:errcheck // a second close is harmless
	return l, entries
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	want := []Entry{sampleEntry("u0/g03", 137), sampleEntry("u0/g04", 1)}
	if err := WriteCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayFile(t, path)
	if valid != size || size != commitSize(want[0])+commitSize(want[1]) {
		t.Fatalf("checkpoint of %d bytes replays %d; the two records should be %d", size, valid, commitSize(want[0])+commitSize(want[1]))
	}
	sameEntries(t, "checkpoint", got, want)
}

func TestEmptyRecipe(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := mustOpen(t, path)
	want := Entry{Label: "", Recipe: &chunk.Recipe{}}
	if err := l.Commit(want); err != nil {
		t.Fatal(err)
	}
	got, _, _ := replayFile(t, path)
	sameEntries(t, "empty recipe", got, []Entry{want})
}

func TestOversizedLabelRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := mustOpen(t, path)
	if err := l.Commit(sampleEntry(string(make([]byte, 70000)), 1)); err == nil {
		t.Fatal("oversized label must error")
	}
	if log, live := l.Sizes(); log != 0 || live != 0 {
		t.Fatalf("a refused commit left %d log bytes, %d live", log, live)
	}
	if err := WriteCheckpoint(path, []Entry{sampleEntry(string(make([]byte, 70000)), 1)}); err == nil {
		t.Fatal("oversized label must error in a checkpoint")
	}
}

// Property: any recipe survives a round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	fn := func(label string, stats []byte, sizes []uint16) bool {
		if len(label) > 1000 {
			label = label[:1000]
		}
		r := &chunk.Recipe{Label: label}
		for i, sz := range sizes {
			r.Append(chunk.Of([]byte{byte(i)}), uint32(sz)+1, chunk.Location{
				Container: uint32(i),
				Segment:   uint64(sz),
				Offset:    int64(i)*17 - 5,
				Size:      uint32(sz) + 1,
			})
		}
		img, err := appendCommit(nil, Entry{Label: label, Stats: stats, Recipe: r})
		if err != nil {
			return false
		}
		got, valid, err := replayBytes(img)
		return err == nil && valid == int64(len(img)) && len(got) == 1 && got[0].Label == label &&
			bytes.Equal(got[0].Stats, stats) && slices.Equal(got[0].Recipe.Refs, r.Refs)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// rng draws small integers from the repo's seekable ChaCha20 stream, so a
// failing seed replays byte for byte.
type rng struct {
	d   *workload.DetRand
	off int64
}

func (r *rng) intn(n int) int {
	var b [4]byte
	r.d.FillAt(b[:], r.off)
	r.off += 4
	return int(binary.LittleEndian.Uint32(b[:]) % uint32(n))
}

// model is the retained set as the test believes it to be.
type model []Entry

func (m model) find(label string) int {
	return slices.IndexFunc(m, func(e Entry) bool { return e.Label == label })
}

func (m model) liveBytes() (n int64) {
	for _, e := range m {
		n += commitSize(e)
	}
	return n
}

// TestReplayEquivalence drives seeded random sequences of commit, forget,
// remap, checkpoint and close-reopen through a Log and, after every step,
// replays the file from scratch: it must hold exactly the model's state —
// labels in order, statistics, every ref — and the Log's two byte counts must
// be the file's length and the length of a checkpoint of the model.
func TestReplayEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := &rng{d: workload.NewDetRand(seed, "catalog-replay")}
			path := filepath.Join(t.TempDir(), FileName)
			l, _ := mustOpen(t, path)
			var m model
			serial := 0
			for step := 0; step < 150; step++ {
				op := r.intn(10)
				what := ""
				switch {
				case op < 4 || len(m) == 0:
					// A small pool of labels, so some are retained twice.
					e := sampleEntry(fmt.Sprintf("t%d", r.intn(6)), r.intn(40))
					e.Stats = []byte(fmt.Sprintf(`{"serial":%d}`, serial))
					serial++
					what = "commit " + e.Label
					if err := l.Commit(e); err != nil {
						t.Fatal(err)
					}
					m = append(m, clone(e))
				case op < 6:
					label := m[r.intn(len(m))].Label
					what = "forget " + label
					if err := l.Forget(label); err != nil {
						t.Fatal(err)
					}
					m = slices.Delete(m, m.find(label), m.find(label)+1)
				case op < 8:
					var groups []Remap
					seen := map[string]bool{}
					for g := 1 + r.intn(3); g > 0; g-- {
						label := m[r.intn(len(m))].Label
						refs := m[m.find(label)].Recipe.Refs
						if seen[label] || len(refs) == 0 {
							continue
						}
						seen[label] = true
						grp := Remap{Label: label}
						for k := r.intn(len(refs)) + 1; k > 0; k-- {
							i := r.intn(len(refs))
							loc := chunk.Location{Container: uint32(1000 + step), Segment: uint64(r.intn(1 << 20)),
								Offset: int64(r.intn(1<<30)) - 7, Size: refs[i].Size}
							grp.Moves = append(grp.Moves, Move{Index: uint32(i), Loc: loc})
							refs[i].Loc = loc
						}
						groups = append(groups, grp)
					}
					what = fmt.Sprintf("remap of %d recipes", len(groups))
					if err := l.Remap(groups); err != nil {
						t.Fatal(err)
					}
				case op < 9:
					what = "checkpoint"
					if err := l.Checkpoint(m); err != nil {
						t.Fatal(err)
					}
					if log, live := l.Sizes(); log != live {
						t.Fatalf("after a checkpoint the log is %d bytes and its live bytes %d", log, live)
					}
				default:
					what = "close and reopen"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					var entries []Entry
					l, entries = mustOpen(t, path)
					sameEntries(t, "reopen", entries, m)
				}
				got, valid, size := replayFile(t, path)
				sameEntries(t, fmt.Sprintf("step %d (%s)", step, what), got, m)
				log, live := l.Sizes()
				if valid != size || log != size || live != m.liveBytes() {
					t.Fatalf("step %d (%s): file %d bytes (%d valid); the log says %d, live %d, a checkpoint would be %d",
						step, what, size, valid, log, live, m.liveBytes())
				}
			}
		})
	}
}

// logImage builds a log image record by record and returns it with the
// offset each record starts at.
func logImage(t *testing.T, recs ...func([]byte) ([]byte, error)) (img []byte, starts []int) {
	t.Helper()
	for _, rec := range recs {
		starts = append(starts, len(img))
		var err error
		if img, err = rec(img); err != nil {
			t.Fatal(err)
		}
	}
	return img, starts
}

func commitRec(e Entry) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return appendCommit(b, e) }
}

func forgetRec(label string) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return appendForget(b, label) }
}

func remapRec(groups ...Remap) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) { return appendRemap(b, groups) }
}

func someMoves(n int) []Move {
	var moves []Move
	for i := 0; i < n; i++ {
		moves = append(moves, Move{Index: uint32(i * 2), Loc: chunk.Location{Container: 77, Segment: 9, Offset: int64(4096 * i), Size: uint32(100 + i*2)}})
	}
	return moves
}

// TestTornTailAtEveryOffset cuts a log at every byte offset inside its last
// record — a commit, a forget, a remap — and replays it: exactly the records
// before it, and the valid prefix ends where the torn record began. A file cut
// the same way reopens there, and the next append lands at that offset.
func TestTornTailAtEveryOffset(t *testing.T) {
	a, b, c := sampleEntry("a", 12), sampleEntry("b", 7), sampleEntry("c", 9)
	prefix := []func([]byte) ([]byte, error){commitRec(a), commitRec(b), forgetRec("a"), commitRec(a)}
	for _, last := range []struct {
		name string
		rec  func([]byte) ([]byte, error)
	}{
		{"commit", commitRec(c)},
		{"forget", forgetRec("b")},
		{"remap", remapRec(Remap{Label: "b", Moves: someMoves(3)}, Remap{Label: "a", Moves: someMoves(5)})},
	} {
		t.Run(last.name, func(t *testing.T) {
			img, starts := logImage(t, append(prefix, last.rec)...)
			tail := starts[len(starts)-1]
			want, valid, err := replayBytes(img[:tail])
			if err != nil || valid != int64(tail) || len(want) != 2 {
				t.Fatalf("the prefix itself: %d entries, %d of %d bytes, %v", len(want), valid, tail, err)
			}
			if whole, valid, err := replayBytes(img); err != nil || valid != int64(len(img)) {
				t.Fatalf("the whole log: %d entries, %d of %d bytes, %v", len(whole), valid, len(img), err)
			}
			for cut := tail; cut < len(img); cut++ {
				got, valid, err := replayBytes(img[:cut])
				if err != nil || valid != int64(tail) {
					t.Fatalf("cut at %d: valid prefix %d, want %d; err %v", cut, valid, tail, err)
				}
				sameEntries(t, fmt.Sprint("cut at ", cut), got, want)
			}
			// The head of the record never reached the disk and its tail did.
			holed := bytes.Clone(img)
			clear(holed[tail : tail+(len(img)-tail)/2])
			if got, valid, err := replayBytes(holed); err != nil || valid != int64(tail) || len(got) != 2 {
				t.Fatalf("record with its head zeroed: %d entries, valid %d, %v", len(got), valid, err)
			}

			for _, cut := range []int{tail, tail + 1, tail + blockstore.FrameHeader, (tail + len(img)) / 2, len(img) - 1} {
				path := filepath.Join(t.TempDir(), FileName)
				if err := os.WriteFile(path, img[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				l, entries := mustOpen(t, path)
				sameEntries(t, fmt.Sprint("file cut at ", cut), entries, want)
				if fi, err := os.Stat(path); err != nil || fi.Size() != int64(tail) {
					t.Fatalf("file cut at %d reopened to %d bytes, want %d (%v)", cut, fi.Size(), tail, err)
				}
				next := sampleEntry("next", 3)
				if err := l.Commit(next); err != nil {
					t.Fatal(err)
				}
				got, valid, size := replayFile(t, path)
				if size != int64(tail)+commitSize(next) || valid != size {
					t.Fatalf("the append after a cut at %d left %d bytes (%d valid), want %d", cut, size, valid, int64(tail)+commitSize(next))
				}
				sameEntries(t, "after the next append", got, append(slices.Clone(want), next))
			}
		})
	}
}

// TestBitFlipInAnInteriorRecordIsRefused flips every byte of a record that
// has acknowledged records after it: whatever the byte — magic, length, kind,
// CRC, payload — Replay refuses, names the record's offset and lists what it
// had replayed. The same flip in the last record is a torn tail: the two
// cannot be told apart, and nothing after it is lost.
func TestBitFlipInAnInteriorRecordIsRefused(t *testing.T) {
	a, b := sampleEntry("a", 6), sampleEntry("b", 4)
	img, starts := logImage(t, commitRec(a), commitRec(b),
		remapRec(Remap{Label: "a", Moves: someMoves(2)}), forgetRec("a"), commitRec(sampleEntry("c", 2)))
	held := [][]string{nil, {"a"}, {"a", "b"}, {"a", "b"}} // before each record
	for rec := 1; rec < len(starts)-1; rec++ {
		for at := starts[rec]; at < starts[rec+1]; at++ {
			for _, mask := range []byte{0x01, 0x80, 0xFF} {
				bad := bytes.Clone(img)
				bad[at] ^= mask
				_, _, err := replayBytes(bad)
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("record %d, byte %d ^ %#x: replay returned %v", rec, at, mask, err)
				}
				if ce.Offset != int64(starts[rec]) || !strings.Contains(err.Error(), fmt.Sprint("offset ", starts[rec])) {
					t.Fatalf("record %d, byte %d: error names offset %d, want %d: %v", rec, at, ce.Offset, starts[rec], err)
				}
				if !slices.Equal(ce.Labels, held[rec]) {
					t.Fatalf("record %d, byte %d: replayed so far %q, want %q", rec, at, ce.Labels, held[rec])
				}
			}
		}
	}
	last := starts[len(starts)-1]
	for at := last; at < len(img); at++ {
		bad := bytes.Clone(img)
		bad[at] ^= 0x10
		got, valid, err := replayBytes(bad)
		if err != nil || valid != int64(last) || len(got) != 1 || got[0].Label != "b" {
			t.Fatalf("flip at %d of the last record: %d entries, valid %d, %v", at, len(got), valid, err)
		}
	}
	// Open says the same, and leaves the file as it found it.
	path := filepath.Join(t.TempDir(), FileName)
	bad := bytes.Clone(img)
	bad[starts[1]+blockstore.FrameHeader+3] ^= 0x04
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Offset != int64(starts[1]) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open of a damaged log: %v", err)
	}
	if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, bad) {
		t.Fatalf("a refused Open changed the file (%v)", rerr)
	}
}

// TestRecordsThatCannotApplyAreRefused: a record that passes its CRC and
// names state the replay does not hold is damage, not a torn tail, wherever
// it sits.
func TestRecordsThatCannotApplyAreRefused(t *testing.T) {
	a := sampleEntry("a", 4)
	unknownKind := func(b []byte) ([]byte, error) {
		start := len(b)
		return blockstore.EndFrame(append(blockstore.BeginFrame(b, magic, 9), "x"...), start)
	}
	trailing := func(b []byte) ([]byte, error) {
		start := len(b)
		b, _ = blockstore.AppendLabel(blockstore.BeginFrame(b, magic, kindForget), "a")
		return blockstore.EndFrame(append(b, 0), start)
	}
	shortRemap := func(b []byte) ([]byte, error) {
		start := len(b)
		b = binary.LittleEndian.AppendUint32(blockstore.BeginFrame(b, magic, kindRemap), 1)
		b, _ = blockstore.AppendLabel(b, "a")
		return blockstore.EndFrame(binary.LittleEndian.AppendUint32(b, 3), start) // three moves promised, none there
	}
	shortCommit := func(b []byte) ([]byte, error) {
		start := len(b)
		b, _ = blockstore.AppendLabel(blockstore.BeginFrame(b, magic, kindCommit), "z")
		b = binary.LittleEndian.AppendUint32(b, 0)
		return blockstore.EndFrame(binary.LittleEndian.AppendUint32(b, 0xFFFFFFFF), start) // 4 G refs promised
	}
	for name, rec := range map[string]func([]byte) ([]byte, error){
		"forget of a label not held":  forgetRec("nobody"),
		"remap of a label not held":   remapRec(Remap{Label: "nobody", Moves: someMoves(1)}),
		"remap past the recipe's end": remapRec(Remap{Label: "a", Moves: []Move{{Index: 4}}}),
		"unknown kind":                unknownKind,
		"forget with trailing bytes":  trailing,
		"remap shorter than it says":  shortRemap,
		"commit shorter than it says": shortCommit,
	} {
		img, starts := logImage(t, commitRec(a), rec)
		_, _, err := replayBytes(img)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Offset != int64(starts[1]) || !slices.Equal(ce.Labels, []string{"a"}) {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestAppendsAreCheckedBeforeTheyAreWritten: the Log refuses, without
// touching the file, what its own replay would refuse.
func TestAppendsAreCheckedBeforeTheyAreWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := mustOpen(t, path)
	if err := l.Commit(sampleEntry("a", 4)); err != nil {
		t.Fatal(err)
	}
	before, _ := l.Sizes()
	for name, err := range map[string]error{
		"forget of a label not held":  l.Forget("nobody"),
		"remap of a label not held":   l.Remap([]Remap{{Label: "nobody"}}),
		"remap past the recipe's end": l.Remap([]Remap{{Label: "a", Moves: []Move{{Index: 4}}}}),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, size := replayFile(t, path); size != before {
		t.Fatalf("refused appends grew the file from %d to %d bytes", before, size)
	}
}

// TestCheckpointRule: the log is due a checkpoint exactly when it is past
// twice its live bytes plus the slack; the checkpoint leaves the live bytes
// and nothing else, through a temp file that is gone afterwards.
func TestCheckpointRule(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	l, _ := mustOpen(t, path)
	checkpoints := telCheckpoints.Value()
	var m model
	for i := 0; ; i++ {
		e := sampleEntry(fmt.Sprint("g", i), 2000)
		if err := l.Commit(e); err != nil {
			t.Fatal(err)
		}
		m = append(m, e)
		if len(m) > 2 {
			if err := l.Forget(m[0].Label); err != nil {
				t.Fatal(err)
			}
			m = m[1:]
		}
		log, live := l.Sizes()
		if due := log > 2*live+1<<20; due != l.NeedsCheckpoint() {
			t.Fatalf("log %d, live %d: NeedsCheckpoint is %v", log, live, !due)
		}
		if l.NeedsCheckpoint() {
			break
		}
		if i > 100 {
			t.Fatal("a hundred commits of 112 KB each never made the log due")
		}
	}
	if err := l.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayFile(t, path)
	sameEntries(t, "after the checkpoint", got, m)
	if log, live := l.Sizes(); log != size || live != size || valid != size || size != m.liveBytes() {
		t.Fatalf("after the checkpoint: file %d, log %d, live %d, want all %d", size, log, live, m.liveBytes())
	}
	if l.NeedsCheckpoint() || telCheckpoints.Value() != checkpoints+1 {
		t.Fatalf("after the checkpoint: still due %v, counted %d", l.NeedsCheckpoint(), telCheckpoints.Value()-checkpoints)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("the checkpoint left %d files in the directory", len(ents))
	}
	// The log goes on in the new file.
	next := sampleEntry("next", 5)
	if err := l.Commit(next); err != nil {
		t.Fatal(err)
	}
	got, _, _ = replayFile(t, path)
	sameEntries(t, "the append after the checkpoint", got, append(slices.Clone(m), next))
}

// TestFailedAppendChangesNothing: when the file cannot be written the caller
// is told, the Log's state stays where it was, and a reopen finds what was
// acknowledged and no more.
func TestFailedAppendChangesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := mustOpen(t, path)
	a := sampleEntry("a", 3)
	if err := l.Commit(a); err != nil {
		t.Fatal(err)
	}
	before, live := l.Sizes()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(sampleEntry("b", 3)); err == nil {
		t.Fatal("commit to a closed log succeeded")
	}
	if err := l.Forget("a"); err == nil {
		t.Fatal("forget on a closed log succeeded")
	}
	if err := l.Remap([]Remap{{Label: "a", Moves: someMoves(1)}}); err == nil {
		t.Fatal("remap on a closed log succeeded")
	}
	if err := l.Checkpoint([]Entry{a}); err == nil {
		t.Fatal("checkpoint of a closed log succeeded")
	}
	if log, lv := l.Sizes(); log != before || lv != live {
		t.Fatalf("failed appends moved the log's counts: %d/%d, were %d/%d", log, lv, before, live)
	}
	_, entries := mustOpen(t, path)
	sameEntries(t, "reopen", entries, []Entry{a})
}

// TestCheckpointWithThePathGoneStopsTheLog: a checkpoint that fails and then
// cannot tell which file has the log's name must not go on appending to one
// that may no longer have it. What was acknowledged is still there.
func TestCheckpointWithThePathGoneStopsTheLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	l, _ := mustOpen(t, path)
	a, b := sampleEntry("a", 3), sampleEntry("b", 2)
	if err := l.Commit(a); err != nil {
		t.Fatal(err)
	}
	// The directory is renamed away: the path no longer leads anywhere, the
	// open file is still there.
	if err := os.Rename(dir, dir+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]Entry{a}); err == nil {
		t.Fatal("checkpoint into a missing directory succeeded")
	}
	if err := l.Commit(b); err == nil {
		t.Fatal("a log whose path is gone still takes appends")
	}
	if err := os.Rename(dir+".moved", dir); err != nil {
		t.Fatal(err)
	}
	_, entries := mustOpen(t, path)
	sameEntries(t, "reopen", entries, []Entry{a})
}

func TestOpenCreatesAnEmptyLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, entries := mustOpen(t, path)
	if log, live := l.Sizes(); len(entries) != 0 || log != 0 || live != 0 {
		t.Fatalf("a new log: %d entries, %d/%d bytes", len(entries), log, live)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("a new log's file: %v", err)
	}
	if _, _, err := Open(filepath.Join(t.TempDir(), "missing", FileName)); err == nil {
		t.Fatal("Open made a directory it was not given")
	}
}

// TestTelemetryFollowsTheLog: one append counter per kind, a checkpoint
// counter, the two byte gauges and the catalog_sync stage clock.
func TestTelemetryFollowsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	l, _ := mustOpen(t, path)
	commits, forgets, remaps := telAppends[kindCommit].Value(), telAppends[kindForget].Value(), telAppends[kindRemap].Value()
	syncNS := stageSync.TotalNS()
	a := sampleEntry("a", 30)
	for _, err := range []error{
		l.Commit(a), l.Commit(sampleEntry("b", 3)),
		l.Remap([]Remap{{Label: "a", Moves: someMoves(4)}}),
		l.Forget("b"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if c, f, r := telAppends[kindCommit].Value()-commits, telAppends[kindForget].Value()-forgets, telAppends[kindRemap].Value()-remaps; c != 2 || f != 1 || r != 1 {
		t.Fatalf("appends counted: %d commits, %d forgets, %d remaps", c, f, r)
	}
	log, live := l.Sizes()
	if telLogBytes.Value() != float64(log) || telLiveBytes.Value() != float64(live) || live != commitSize(a) || log <= live {
		t.Fatalf("gauges %v/%v, the log %d/%d", telLogBytes.Value(), telLiveBytes.Value(), log, live)
	}
	if stageSync.TotalNS() <= syncNS {
		t.Fatal("four appends charged nothing to catalog_sync")
	}
	if !slices.Contains(telemetry.StageNames(), "catalog_sync") {
		t.Fatal("catalog_sync is not a registered stage")
	}
}
