package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/chunker"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// hintCounter reads one of the ingest pipeline's process-wide counters.
func hintCounter(name string) int64 { return telemetry.Default().Snapshot().Counters[name] }

// hintRun backs up eight generations of the single-user workload on the sim
// backend, one at a time, and then two more as one BackupStreams round of
// two lanes. It restores every backup under Verify, holds the store to Check,
// and returns what the store recorded: for the serial generations every ref,
// every BackupStats and Stats(); for the round every ref's fingerprint and
// size. A concurrent round's container IDs and simulated times follow the
// goroutines' order at the device (ROADMAP item 4), so they are left out.
func hintRun(t *testing.T, kind EngineKind, hashHinted bool) (serial, round string, lent int) {
	t.Helper()
	ctx := context.Background()
	cfg := workload.DefaultConfig(11)
	cfg.NumFiles = 6
	cfg.MeanFileSize = 256 << 10
	sched, err := workload.NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Engine: kind, Alpha: 0.1, ExpectedBytes: 64 << 20, StoreData: true, TrackEfficiency: true, hashHinted: hashHinted})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	next := func() (string, []byte) {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		return b.Label, data
	}
	var inputs [][]byte
	var w strings.Builder
	for range 8 {
		label, data := next()
		inputs = append(inputs, data)
		b, err := s.Backup(ctx, label, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&w, "%+v\n", b.Stats)
		for _, r := range b.recipe().Refs {
			fmt.Fprintf(&w, "%x %d %+v\n", r.FP, r.Size, r.Loc)
		}
	}
	fmt.Fprintf(&w, "%+v\n", s.Stats())

	var streams []StreamInput
	var rw strings.Builder
	for range 2 {
		label, data := next()
		inputs = append(inputs, data)
		streams = append(streams, StreamInput{Label: label, Stream: bytes.NewReader(data)})
	}
	backups, _, err := s.BackupStreams(ctx, streams, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backups {
		fmt.Fprintf(&rw, "%s %d\n", b.Label, b.Stats.LogicalBytes)
		for _, r := range b.recipe().Refs {
			fmt.Fprintf(&rw, "%x %d\n", r.FP, r.Size)
		}
	}
	restoreVerifyAll(t, s, inputs)
	checkClean(t, s)
	return w.String(), rw.String(), len(s.eng.Containers().LentIDs())
}

// TestComparedHintsChangeNothing: on the sim backend a hinted chunk is
// confirmed by comparing its bytes with the verified stored copy instead of
// being hashed. That must change no fingerprint, location or statistic, and
// the comparison must really have run.
func TestComparedHintsChangeNothing(t *testing.T) {
	for _, kind := range []EngineKind{DeFrag, DDFSLike} {
		t.Run(kind.String(), func(t *testing.T) {
			compared := hintCounter("dedup_ingest_hints_compared_total")
			verified := hintCounter("dedup_ingest_hint_sources_verified_total")
			serial, round, lent := hintRun(t, kind, false)
			compared = hintCounter("dedup_ingest_hints_compared_total") - compared
			verified = hintCounter("dedup_ingest_hint_sources_verified_total") - verified
			if compared == 0 || verified == 0 || lent == 0 {
				t.Fatalf("%d hinted chunks confirmed by comparison, %d stored copies verified, %d sections lent: want all above zero", compared, verified, lent)
			}
			hashedSerial, hashedRound, hashedLent := hintRun(t, kind, true)
			if hashedLent != 0 {
				t.Fatalf("%d sections lent with comparison off", hashedLent)
			}
			if serial != hashedSerial {
				t.Fatalf("serial backups differ with comparison on:\n%s\nand off:\n%s", firstDiff(serial, hashedSerial), firstDiff(hashedSerial, serial))
			}
			if round != hashedRound {
				t.Fatalf("the streams round differs with comparison on:\n%s\nand off:\n%s", firstDiff(round, hashedRound), firstDiff(hashedRound, round))
			}
		})
	}
}

// firstDiff returns the line of a where it first differs from b.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return fmt.Sprintf("line %d: %s", i+1, al[i])
		}
	}
	return "(a prefix of the other)"
}

// lyingSeal is a sim backend that stores some sections other than it is
// given: replace rewrites each section before it is kept.
type lyingSeal struct {
	blockstore.Backend
	replace func(info blockstore.ContainerInfo, data []byte)
}

func (l *lyingSeal) Seal(ctx context.Context, info blockstore.ContainerInfo, data []byte) error {
	data = slices.Clone(data)
	l.replace(info, data)
	return l.Backend.Seal(ctx, info, data)
}

// span returns where the entry with fingerprint fp lies in a section of
// info, or ok false.
func span(info blockstore.ContainerInfo, fp chunk.Fingerprint) (from, to int, ok bool) {
	for _, m := range info.Entries {
		if m.FP == fp {
			return from, from + int(m.Size), true
		}
		from += int(m.Size)
	}
	return 0, 0, false
}

// runOf returns n bytes of b.
func runOf(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// cutsOf returns the chunks chunker.Stream cuts data into, and their
// fingerprints by chunk.OfEach.
func cutsOf(t *testing.T, data []byte) ([][]byte, []chunk.Fingerprint) {
	t.Helper()
	st, err := chunker.NewGear(bytes.NewReader(data), chunker.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte
	for {
		c, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, slices.Clone(c))
	}
	fps := make([]chunk.Fingerprint, len(chunks))
	chunk.OfEach(chunks, fps)
	return chunks, fps
}

// endOfFirstRun returns the stream offset where the first chunk of data that
// is a whole Max bytes of b ends: the Key there is that of a run of b, which
// the hint table maps to such a chunk once a stream has cut two in a row.
func endOfFirstRun(t *testing.T, chunks [][]byte, b byte) (end int, fp chunk.Fingerprint) {
	t.Helper()
	run := runOf(b, chunker.DefaultMax)
	for _, c := range chunks {
		end += len(c)
		if bytes.Equal(c, run) {
			return end, chunk.Of(run)
		}
	}
	t.Fatalf("no chunk of %d bytes of %#x", len(run), b)
	return 0, fp
}

// checkFingerprints fails t unless backup b recorded, chunk by chunk, the
// sizes and SHA-256 of the input bytes that chunker.Stream cuts.
func checkFingerprints(t *testing.T, b *Backup, input []byte) {
	t.Helper()
	chunks, fps := cutsOf(t, input)
	refs := b.recipe().Refs
	if len(refs) != len(chunks) {
		t.Fatalf("%s: %d refs for %d chunks", b.Label, len(refs), len(chunks))
	}
	for i, r := range refs {
		if r.FP != fps[i] || int(r.Size) != len(chunks[i]) {
			t.Fatalf("%s: chunk %d (%d bytes) recorded as %x, %d bytes; its SHA-256 is %x", b.Label, i, len(chunks[i]), r.FP[:8], r.Size, fps[i][:8])
		}
	}
}

// TestLyingStoredCopyIsHashed: a hinted chunk whose bytes equal the stored
// copy a hint names still takes the hint's fingerprint only once that copy
// has been seen to hash to it. Here the backend stores the copy of a run of
// 0xb1 zeroed, or swapped with a run of 0xc3 of the same size, and the next
// stream brings exactly those bytes where the hint table jumps to that
// copy: they must be recorded under their own SHA-256.
func TestLyingStoredCopyIsHashed(t *testing.T) {
	const maxChunk = chunker.DefaultMax
	base := slices.Concat(randStream(300<<10, 1), runOf(0xc3, 4*maxChunk), randStream(300<<10, 2), runOf(0xb1, 4*maxChunk))
	chunks, _ := cutsOf(t, base)
	end, fpB := endOfFirstRun(t, chunks, 0xb1)
	_, fpC := endOfFirstRun(t, chunks, 0xc3)
	for _, tc := range []struct {
		name    string
		planted []byte // what the store keeps in place of the run of 0xb1
		replace func(info blockstore.ContainerInfo, data []byte)
	}{
		{"zeroed", make([]byte, maxChunk), func(info blockstore.ContainerInfo, data []byte) {
			if a, b, ok := span(info, fpB); ok {
				clear(data[a:b])
			}
		}},
		{"swapped", runOf(0xc3, maxChunk), func(info blockstore.ContainerInfo, data []byte) {
			a, b, okB := span(info, fpB)
			c, d, okC := span(info, fpC)
			if okB && okC {
				tmp := slices.Clone(data[a:b])
				copy(data[a:b], data[c:d])
				copy(data[c:d], tmp)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, ExpectedBytes: 64 << 20, StoreData: true,
				WrapBackend: func(be blockstore.Backend) blockstore.Backend { return &lyingSeal{be, tc.replace} }})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Backup(ctx, "base", bytes.NewReader(base)); err != nil {
				t.Fatal(err)
			}
			next := slices.Concat(base[:end], tc.planted, randStream(200<<10, 3))
			b, err := s.Backup(ctx, "next", bytes.NewReader(next))
			if err != nil {
				t.Fatal(err)
			}
			checkFingerprints(t, b, next)
			if len(s.eng.Containers().LentIDs()) == 0 {
				t.Fatal("nothing was lent: the hinted chunks were never compared")
			}
		})
	}
}

// TestMetadataOnlyStoreNeverCompares: a store without data serves zeros for
// every section, so it lends nothing, and a run of zeros where the hint
// table jumps to a non-zero chunk keeps its true fingerprints.
func TestMetadataOnlyStoreNeverCompares(t *testing.T) {
	const maxChunk = chunker.DefaultMax
	ctx := context.Background()
	base := slices.Concat(randStream(300<<10, 4), runOf(0xb1, 4*maxChunk))
	chunks, _ := cutsOf(t, base)
	end, _ := endOfFirstRun(t, chunks, 0xb1)
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, ExpectedBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Backup(ctx, "base", bytes.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	next := slices.Concat(base[:end], make([]byte, 2*maxChunk), randStream(200<<10, 5))
	b, err := s.Backup(ctx, "next", bytes.NewReader(next))
	if err != nil {
		t.Fatal(err)
	}
	checkFingerprints(t, b, next)
	if s.eng.Containers().Lends() || len(s.eng.Containers().LentIDs()) != 0 {
		t.Fatalf("a metadata-only store lent %d sections", len(s.eng.Containers().LentIDs()))
	}
}

// TestDroppedContainersAreUnlent: the sections a backup's hinted chunks were
// compared with are lent until their containers go; after a Forget and an
// epoch drop them, nothing lent names a container that is not sealed.
func TestDroppedContainersAreUnlent(t *testing.T) {
	ctx := context.Background()
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, ExpectedBytes: 64 << 20, StoreData: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kept, gone := randStream(2<<20, 6), randStream(6<<20, 7)
	for _, in := range []struct {
		label string
		data  []byte
	}{{"kept", kept}, {"gone", gone}, {"gone-again", gone}} {
		if _, err := s.Backup(ctx, in.label, bytes.NewReader(in.data)); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.eng.Containers()
	goneIDs := map[uint32]bool{}
	for _, r := range s.FindBackup("gone").recipe().Refs {
		goneIDs[r.Loc.Container] = true
	}
	lentGone := 0
	for _, id := range cs.LentIDs() {
		if goneIDs[id] {
			lentGone++
		}
	}
	if lentGone == 0 {
		t.Fatalf("none of gone's containers %v was lent (lent: %v)", goneIDs, cs.LentIDs())
	}
	s.Forget("gone")
	s.Forget("gone-again")
	if _, err := s.MaintenanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for id := range goneIDs {
		if !cs.Sealed(id) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("the epoch dropped none of gone's containers")
	}
	for _, id := range cs.LentIDs() {
		if !cs.Sealed(id) {
			t.Fatalf("container %d is lent after it was dropped", id)
		}
	}
	restoreVerifyAll(t, s, [][]byte{kept})
	checkClean(t, s)
}
