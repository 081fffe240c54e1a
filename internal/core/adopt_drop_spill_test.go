package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/engine"
	"repro/internal/restore"
)

func TestAdoptReseedsIndexAndBloom(t *testing.T) {
	// A second engine over the same populated backend adopts it: directory,
	// index and summary vector come back from the sealed containers, so the
	// same stream ingested again is all duplicates and stores nothing.
	ctx := context.Background()
	cfg := testConfig(0, true) // α = 0: no rewrites, so "nothing stored" is exact
	cfg.Backend = blockstore.NewSim(true)
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := randStream(4<<20, 41)
	if _, _, err := first.Backup(ctx, "g0", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	first.Containers().WaitSeals()

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.Adopt(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := second.Containers().NumContainers(), first.Containers().NumContainers(); got != want || got == 0 {
		t.Fatalf("adopted %d containers, the backend holds %d", got, want)
	}
	if got, want := second.Index().Len(), first.Index().Len(); got != want {
		t.Fatalf("adopted index has %d entries, want %d", got, want)
	}
	stored := second.Containers().StoredBytes()
	rec, st, err := second.Backup(ctx, "again", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.UniqueBytes != 0 || st.DedupedBytes != st.LogicalBytes {
		t.Fatalf("re-ingest after Adopt was not all duplicates: %+v", st)
	}
	if got := second.Containers().StoredBytes(); got != stored {
		t.Fatalf("re-ingest after Adopt stored %d new bytes", got-stored)
	}
	rcfg := restore.DefaultConfig()
	rcfg.Verify = true
	if err := restore.VerifyAgainst(ctx, second.Containers(), rec, rcfg, data); err != nil {
		t.Fatalf("restore through the adopted containers: %v", err)
	}
	if err := second.Adopt(ctx); err == nil {
		t.Fatal("Adopt on a populated engine must fail")
	}
}

func TestDropFromIndexForgetsOneContainer(t *testing.T) {
	// The hook repair and the maintenance merge call right before a
	// container leaves: every mapping into it goes, no other does, and the
	// next ingest of the same content stores those chunks afresh.
	ctx := context.Background()
	e, err := New(testConfig(0, true))
	if err != nil {
		t.Fatal(err)
	}
	data := randStream(12<<20, 43)
	if _, _, err := e.Backup(ctx, "g0", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if e.Containers().NumContainers() < 2 {
		t.Fatal("need at least two containers to tell them apart")
	}
	metas := e.Containers().PeekMeta(0)
	before := e.Index().Len()
	if got := e.DropFromIndex(0); got != len(metas) {
		t.Fatalf("dropped %d mappings, container 0 holds %d chunks", got, len(metas))
	}
	if got := e.Index().Len(); got != before-len(metas) {
		t.Fatalf("index went from %d to %d entries, want %d fewer", before, got, len(metas))
	}
	var bytesIn0 int64
	for _, m := range metas {
		if _, ok := e.Index().Peek(m.FP); ok {
			t.Fatalf("chunk %v of the dropped container is still indexed", m.FP)
		}
		bytesIn0 += int64(m.Size)
	}
	rec, st, err := e.Backup(ctx, "again", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.UniqueBytes != bytesIn0 {
		t.Fatalf("re-ingest stored %d bytes, want exactly container 0's %d", st.UniqueBytes, bytesIn0)
	}
	for _, ref := range rec.Refs {
		if ref.Loc.Container == 0 {
			t.Fatal("re-ingest still references the container the index forgot")
		}
	}
}

func TestSpilledSegmentsWriteThrough(t *testing.T) {
	// A stream that shows no duplicates through probation is demoted to
	// spill: from then on probable duplicates are written through without
	// touching the index (the earlier copy stays authoritative), new chunks
	// register as usual, and the recipe restores bit-identically.
	ctx := context.Background()
	cfg := testConfig(0.1, true)
	cfg.Filter = engine.FilterConfig{Enabled: true, Probation: 64}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := randStream(3<<20, 45)
	baseRec, _, err := e.Backup(ctx, "base", bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	baseEnd := uint32(e.Containers().Slots())

	stream := append(randStream(3<<20, 46), base...)
	rec, st, err := e.Backup(ctx, "spilled", bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if !st.FilterSpilled || st.SpilledBytes == 0 {
		t.Fatalf("an all-unique probation followed by old data must spill: %+v", st)
	}
	if got := st.UniqueBytes + st.DedupedBytes + st.RewrittenBytes + st.SpilledBytes; got != st.LogicalBytes {
		t.Fatalf("byte conservation: %d accounted, %d logical: %+v", got, st.LogicalBytes, st)
	}
	// The spilled copies are new physical copies the index does not name.
	var spilledRefs int
	for _, ref := range rec.Refs {
		if loc, ok := e.Index().Peek(ref.FP); ok && loc.Container < baseEnd && ref.Loc.Container >= baseEnd {
			spilledRefs++
		}
	}
	if spilledRefs == 0 {
		t.Fatal("no reference points at a written-through copy whose original stays authoritative")
	}
	rcfg := restore.DefaultConfig()
	rcfg.Verify = true
	if err := restore.VerifyAgainst(ctx, e.Containers(), rec, rcfg, stream); err != nil {
		t.Fatalf("spilled stream: %v", err)
	}
	if err := restore.VerifyAgainst(ctx, e.Containers(), baseRec, rcfg, base); err != nil {
		t.Fatalf("base stream after the spill: %v", err)
	}
}
