package engine

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/disk"
	"repro/internal/segment"
)

// stubRule is a per-segment rule for driving the shell: a chunk seen before
// (in this engine's own RAM map) is removed by reference, anything else is
// written. It counts the hooks the shell calls.
type stubRule struct {
	seen   map[chunk.Fingerprint]chunk.Location
	segIDs []uint64
	seals  int
	// After its first segment the rule cancels cancel, or fails the next
	// segment with fail, when set.
	cancel context.CancelFunc
	fail   error
}

func (r *stubRule) segment(in *Ingest, segID uint64, seg *segment.Segment) error {
	if r.fail != nil && len(r.segIDs) > 0 {
		return r.fail
	}
	if r.cancel != nil && len(r.segIDs) > 0 {
		r.cancel()
	}
	r.segIDs = append(r.segIDs, segID)
	for _, c := range seg.Chunks {
		loc, dup := r.seen[c.FP]
		if dup {
			in.Stats.DedupedBytes += int64(c.Size)
		} else {
			var err error
			if loc, err = in.W.Write(in.Ctx, c, segID); err != nil {
				return err
			}
			r.seen[c.FP] = loc
			in.Stats.UniqueBytes += int64(c.Size)
		}
		in.Recipe.Append(c.FP, c.Size, loc)
	}
	return nil
}

func newStub(t *testing.T, cfg Config, missed bool) (*Base, *stubRule) {
	t.Helper()
	r := &stubRule{seen: map[chunk.Fingerprint]chunk.Location{}}
	b, err := NewBase("stub", cfg, Rule{Segment: r.segment, Seal: func() { r.seals++ }, Missed: missed, Span: "stub.backup"})
	if err != nil {
		t.Fatal(err)
	}
	return b, r
}

// openContainers is how many containers of s have an ID and no seal.
func openContainers(b *Base) int { return b.Containers().Slots() - b.Containers().NumContainers() }

// TestBaseSerialBackup: a Backup charges the engine clock through the
// store's serial writer, numbers segments in order, runs the oracle around
// the rule, calls Seal once at the end, and packs its containers back to
// back on the device.
func TestBaseSerialBackup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreData = true
	b, r := newStub(t, cfg, true)
	if b.Name() != "stub" || b.Containers() == nil {
		t.Fatal("name / containers")
	}
	b.SetOracle(cindex.NewOracle())
	data := randBytes(6<<20, 1)
	ctx := context.Background()
	rec, st, err := b.Backup(ctx, "g0", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.Label != "g0" || rec.Label != "g0" || st.LogicalBytes != int64(len(data)) ||
		st.Chunks != int64(rec.Len()) || st.Segments != int64(len(r.segIDs)) || st.Duration != b.Clock().Now() {
		t.Fatalf("first backup stats %+v for %d chunks and %d segments", st, rec.Len(), len(r.segIDs))
	}
	for i, id := range r.segIDs {
		if id != uint64(i+1) {
			t.Fatalf("segment IDs %v, want 1, 2, …", r.segIDs)
		}
	}
	if r.seals != 1 || openContainers(b) != 0 || b.Containers().NumContainers() != 2 {
		t.Fatalf("%d seals, %d containers open, %d sealed", r.seals, openContainers(b), b.Containers().NumContainers())
	}
	// Packed: the second container starts where the first one's fill ends,
	// and the device ends where the second one's does.
	ccfg := b.Containers().Config()
	meta0, meta1 := b.Containers().PeekMeta(0), b.Containers().PeekMeta(1)
	if meta1[0].Offset != meta0[0].Offset+b.Containers().DataFill(0)+ccfg.MetaCap() ||
		b.Containers().Device().Size() != meta1[0].Offset+b.Containers().DataFill(1) {
		t.Fatal("a lone serial writer must pack its containers back to back")
	}

	// The same stream again is all duplicate: the oracle sees it, the rule
	// removes it, nothing is missed.
	_, st, err = b.Backup(ctx, "g1", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.OracleRedundantBytes != int64(len(data)) || st.DedupedBytes != int64(len(data)) || st.MissedDupBytes != 0 {
		t.Fatalf("second backup stats %+v", st)
	}
	if r.seals != 2 {
		t.Fatalf("%d seals after two backups", r.seals)
	}
}

// TestBaseMissedDupBytes: an engine whose rule removes less than the oracle
// saw reports the rest as missed only when its rule says so.
func TestBaseMissedDupBytes(t *testing.T) {
	for _, missed := range []bool{false, true} {
		b, r := newStub(t, DefaultConfig(), missed)
		b.SetOracle(cindex.NewOracle())
		data := randBytes(1<<20, 2)
		if _, _, err := b.Backup(context.Background(), "g0", bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		clear(r.seen) // the rule forgets: the repeat is written again
		_, st, err := b.Backup(context.Background(), "g1", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if missed {
			want = int64(len(data))
		}
		if st.MissedDupBytes != want || st.PartialRedundantBytes != 0 {
			t.Fatalf("missed=%v: stats %+v", missed, st)
		}
	}
}

// TestIndexedLaneBackup: a BackupStream charges its lane, not the engine
// clock, writes through a writer of its own whose containers keep their whole
// extent, and binds the resolver so the rule can register and find chunks.
// A second engine over the same backend adopts what the first wrote.
func TestIndexedLaneBackup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backend = blockstore.NewSim(false)
	var resolved int
	rule := Rule{Segment: func(in *Ingest, segID uint64, seg *segment.Segment) error {
		for i, res := range in.Resolver.ResolveBatch(seg.Chunks, &in.Stats) {
			c := seg.Chunks[i]
			loc := res.Loc
			if res.Dup {
				resolved++
				in.Stats.DedupedBytes += int64(c.Size)
			} else {
				var err error
				if loc, err = in.W.Write(in.Ctx, c, segID); err != nil {
					return err
				}
				in.Resolver.RegisterNew(c.FP, loc)
			}
			in.Recipe.Append(c.FP, c.Size, loc)
		}
		return nil
	}}
	x, err := NewIndexed("lanes", cfg, DefaultIndexConfig(cfg, 64<<20), rule)
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(5<<20, 3)
	var lane disk.Clock
	master := x.Clock().Now() // the index's pages were laid out on it
	rec, st, err := x.BackupStream(context.Background(), "lane", bytes.NewReader(data), &lane)
	if err != nil {
		t.Fatal(err)
	}
	if x.Clock().Now() != master || lane.Now() == 0 || st.Duration != lane.Now() {
		t.Fatalf("lane %v, master %v, duration %v", lane.Now(), x.Clock().Now(), st.Duration)
	}
	cs := x.Containers()
	extent := cs.Config().MetaCap() + cs.Config().DataCap
	if cs.NumContainers() != 2 || cs.Device().Size() != 2*extent {
		t.Fatalf("%d containers on %d device bytes, want 2 whole extents", cs.NumContainers(), cs.Device().Size())
	}
	if _, _, err := x.Backup(context.Background(), "again", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if resolved != rec.Len() {
		t.Fatalf("the repeat resolved %d of %d chunks", resolved, rec.Len())
	}

	y, err := NewIndexed("lanes", cfg, DefaultIndexConfig(cfg, 64<<20), rule)
	if err != nil {
		t.Fatal(err)
	}
	if err := y.Adopt(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Only the first backup wrote segments: the sequence resumes past its.
	if y.Index().Len() != x.Index().Len() || y.segSeq.Load() != uint64(st.Segments) {
		t.Fatalf("adopted %d index entries and segment %d, want %d and %d",
			y.Index().Len(), y.segSeq.Load(), x.Index().Len(), st.Segments)
	}
	if n := y.DropFromIndex(0); n != len(cs.PeekMeta(0)) {
		t.Fatalf("dropped %d mappings of container 0, want %d", n, len(cs.PeekMeta(0)))
	}
}

// TestBaseAbortSealsWhatWasPlaced: a backup cut short after its first
// segment — by its context or by its rule — returns the error and no recipe,
// skips Seal, and leaves sealed every container it opened, on the serial
// path and on a lane alike.
func TestBaseAbortSealsWhatWasPlaced(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		lane bool
		fail error
	}{
		{"serial cancelled", false, nil},
		{"lane cancelled", true, nil},
		{"serial rule error", false, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, r := newStub(t, DefaultConfig(), false)
			x := &Indexed{b}
			src := bytes.NewReader(randBytes(6<<20, 4))
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			want := boom
			if r.fail = tc.fail; tc.fail == nil {
				r.cancel, want = cancel, context.Canceled
			}
			var (
				rec *chunk.Recipe
				err error
			)
			if tc.lane {
				rec, _, err = x.BackupStream(ctx, "cut", src, &disk.Clock{})
			} else {
				rec, _, err = b.Backup(ctx, "cut", src)
			}
			if !errors.Is(err, want) || rec != nil {
				t.Fatalf("got %v and recipe %v, want %v and none", err, rec, want)
			}
			if r.seals != 0 || openContainers(b) != 0 || b.Containers().NumContainers() == 0 {
				t.Fatalf("%d seals, %d containers left open, %d sealed", r.seals, openContainers(b), b.Containers().NumContainers())
			}
		})
	}
}
