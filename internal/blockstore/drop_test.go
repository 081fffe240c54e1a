package blockstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSimDrop(t *testing.T) {
	b := NewSim(true)
	want := sealN(t, b, 4)
	if err := b.Drop(context.Background(), []uint32{1, 3}, "merged"); err != nil {
		t.Fatal(err)
	}
	delete(want, 1)
	delete(want, 3)
	checkRoundTrip(t, b, want)
	if err := b.Drop(context.Background(), []uint32{1}, "again"); err == nil {
		t.Fatal("dropping a missing container must error")
	}
}

func TestFileDropReclaimsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, b, 4)
	if err := b.Drop(context.Background(), []uint32{0, 2}, "merged into 4"); err != nil {
		t.Fatal(err)
	}
	delete(want, 0)
	delete(want, 2)
	checkRoundTrip(t, b, want)
	// Files are reclaimed, not quarantined.
	for _, id := range []string{"000000", "000002"} {
		if _, err := os.Stat(filepath.Join(dir, "containers", id+".data")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("victim file %s.data still present: %v", id, err)
		}
	}
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

func TestFileDropOfUnsyncedSealsReplaysClean(t *testing.T) {
	// Seal and drop with no checkpoint in between: replay must take the
	// victims' seal records back out at the merge record, whose files are
	// already deleted, instead of listing them.
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, b, 3)
	if err := b.Drop(context.Background(), []uint32{1}, "merged"); err != nil {
		t.Fatal(err)
	}
	delete(want, 1)
	// Abandon b without Close — crash after the drop completed.
	kill(b)

	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	checkRoundTrip(t, re, want)
}

func TestFileMergeIntentRollsForwardOnReopen(t *testing.T) {
	// Crash between the merge record's fdatasync and the file deletions: the
	// reopen must honour the durable record — victims unlisted, their files
	// deleted — even though the dying process never touched them.
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := sealN(t, b, 3)
	// Append the record the crashed process would have left, and die.
	rec, err := appendRetire(nil, recMerge, []uint32{0, 2}, "merged")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.log.Append(rec); err != nil {
		t.Fatal(err)
	}
	// Halfway through the deletions too: one victim's file already gone.
	if err := os.Remove(filepath.Join(dir, "containers", "000000.data")); err != nil {
		t.Fatal(err)
	}
	kill(b)

	re, err := OpenFile(dir, true)
	if err != nil {
		t.Fatalf("reopen with a merge record and its files: %v", err)
	}
	defer re.Close()
	delete(want, 0)
	delete(want, 2)
	checkRoundTrip(t, re, want)
	for _, name := range []string{"000000.data", "000002.data"} {
		if _, err := os.Stat(filepath.Join(dir, "containers", name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("roll-forward left victim file %s: %v", name, err)
		}
	}
	// And a checkpoint folds the record away for good.
	if err := re.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	kill(re)
	re2, err := OpenFile(dir, true)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer re2.Close()
	checkRoundTrip(t, re2, want)
}

func TestFileDropMissingContainer(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sealN(t, b, 2)
	err = b.Drop(context.Background(), []uint32{0, 7}, "merged")
	if err == nil || !strings.Contains(err.Error(), "not sealed") {
		t.Fatalf("drop of missing container: %v, want not-sealed error", err)
	}
	// The batch is all-or-nothing: container 0 must still be listed.
	infos, err := b.List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("failed drop mutated the store: %d containers, want 2", len(infos))
	}
}

func TestDropPassThroughWrappers(t *testing.T) {
	inner := NewSim(true)
	cb := NewCounting(inner)
	want := sealN(t, cb, 3)
	var d Dropper = cb
	if err := d.Drop(context.Background(), []uint32{1}, "merged"); err != nil {
		t.Fatal(err)
	}
	delete(want, 1)
	checkRoundTrip(t, inner, want)
}
