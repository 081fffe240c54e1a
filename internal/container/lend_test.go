package container

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/chunk"
)

// TestLendRules: Lend hands out the stored copy of a fingerprint at its
// location, uncharged, only once LendFromMemory is set on a store that keeps
// data, only for a sealed container whose persist has landed, and only when
// the entry at the location holds that fingerprint and size. One verified
// mark per entry is shared by every Lend of it, and a dropped or quarantined
// container is lent no more.
func TestLendRules(t *testing.T) {
	ctx := context.Background()
	s, clk := newTestStore(t, true, smallConfig())
	d1, d2 := bytes.Repeat([]byte{1}, 300), bytes.Repeat([]byte{2}, 200)
	c1, c2 := chunk.New(d1), chunk.New(d2)
	l1, l2 := mustWrite(s, c1, 0), mustWrite(s, c2, 0)
	if err := s.SerialWriter().Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lend(c1.FP, l1); ok || s.Lends() {
		t.Fatal("lent before LendFromMemory")
	}
	s.LendFromMemory()
	before := clk.Now()
	got, ok := s.Lend(c1.FP, l1)
	if !ok || !bytes.Equal(got.Data, d1) {
		t.Fatalf("Lend(c1) = %v, %v: want its bytes", len(got.Data), ok)
	}
	if clk.Now() != before {
		t.Fatalf("Lend charged %v of simulated time", clk.Now()-before)
	}
	for _, bad := range []struct {
		name string
		fp   chunk.Fingerprint
		loc  chunk.Location
	}{
		{"another fingerprint", c2.FP, l1},
		{"another size", c1.FP, chunk.Location{Container: l1.Container, Offset: l1.Offset, Size: l1.Size - 1}},
		{"no entry at the offset", c1.FP, chunk.Location{Container: l1.Container, Offset: l1.Offset + 1, Size: l1.Size}},
		{"an unsealed container", c1.FP, chunk.Location{Container: 99, Offset: l1.Offset, Size: l1.Size}},
	} {
		if _, ok := s.Lend(bad.fp, bad.loc); ok {
			t.Errorf("lent at %s", bad.name)
		}
	}

	if got.Verified() {
		t.Fatal("a copy is verified before anyone verified it")
	}
	if !got.Verify() || got.Verify() {
		t.Fatal("Verify must report the first mark alone as new")
	}
	if again, _ := s.Lend(c1.FP, l1); !again.Verified() {
		t.Fatal("a second Lend of the entry lost its mark")
	}
	if other, _ := s.Lend(c2.FP, l2); other.Verified() {
		t.Fatal("verifying one entry marked another")
	}

	if err := s.Drop(ctx, []uint32{l1.Container}, "test"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lend(c1.FP, l1); ok || len(s.LentIDs()) != 0 {
		t.Fatalf("a dropped container is still lent (%v)", s.LentIDs())
	}

	c3 := chunk.New(bytes.Repeat([]byte{3}, 100))
	l3 := mustWrite(s, c3, 1)
	if err := s.SerialWriter().Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lend(c3.FP, l3); !ok {
		t.Fatal("a sealed container was not lent")
	}
	if err := s.Quarantine(ctx, l3.Container, "test"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lend(c3.FP, l3); ok || len(s.LentIDs()) != 0 {
		t.Fatalf("a quarantined container is still lent (%v)", s.LentIDs())
	}
}

// TestLendNeverWaitsOnAPersist: while a container's persist is in flight
// Lend refuses it at once, and a container the failed persist unpublished
// is never lent.
func TestLendNeverWaitsOnAPersist(t *testing.T) {
	ctx := context.Background()
	s, be := newSlowStore(t)
	s.LendFromMemory()
	gate := make(chan struct{})
	be.gate, be.sealErr = gate, errors.New("backend exploded")
	c := chunk.New(bytes.Repeat([]byte{7}, 100))
	loc := mustWrite(s, c, 1)
	w := s.SerialWriter()
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lend(c.FP, loc); ok {
		t.Fatal("lent a container whose persist is in flight")
	}
	close(gate)
	if err := w.Finish(ctx); err == nil {
		t.Fatal("Finish hid the failed persist")
	}
	if _, ok := s.Lend(c.FP, loc); ok || len(s.LentIDs()) != 0 {
		t.Fatal("lent a container its failed persist unpublished")
	}
}

// TestMetadataOnlyStoreLendsNothing: a store without data has only zeros to
// lend, so LendFromMemory leaves it lending nothing.
func TestMetadataOnlyStoreLendsNothing(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	s.LendFromMemory()
	c := chunk.Meta(chunk.Of([]byte("x")), 10)
	loc := mustWrite(s, c, 0)
	if err := s.SerialWriter().Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lend(c.FP, loc); ok || s.Lends() {
		t.Fatal("a metadata-only store lent a section")
	}
}
