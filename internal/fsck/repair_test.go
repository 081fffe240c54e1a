package fsck

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/disk"
)

// openFileStore opens a container store over the file backend in dir,
// adopting whatever the directory holds.
func openFileStore(t *testing.T, dir string) (*container.Store, *blockstore.File) {
	t.Helper()
	be, err := blockstore.OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var clk disk.Clock
	s, err := container.NewStoreWithBackend(disk.NewDevice(disk.DefaultModel(), &clk, true),
		container.Config{DataCap: 4096, MaxChunks: 16}, be)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s, be
}

// buildFileStore writes 24 chunks of 500 bytes — three containers of eight —
// into a file-backed store in dir and closes it. The recipes: "first" crosses
// containers 0 and 1, "second" lies in container 2, "third" crosses 1 and 2.
func buildFileStore(t *testing.T, dir string) []*chunk.Recipe {
	t.Helper()
	s, be := openFileStore(t, dir)
	recs := []*chunk.Recipe{{Label: "first"}, {Label: "second"}, {Label: "third"}}
	for i := 0; i < 24; i++ {
		c := chunk.New(bytes.Repeat([]byte{byte(i + 1)}, 500))
		loc := mustWrite(s, c, uint64(i/4+1))
		if want := uint32(i / 8); loc.Container != want {
			t.Fatalf("chunk %d landed in container %d, the test needs %d", i, loc.Container, want)
		}
		for _, r := range recs {
			if (r.Label == "first" && i < 12) || (r.Label == "second" && i >= 20) || (r.Label == "third" && i >= 12 && i < 20) {
				r.Append(c.FP, c.Size, loc)
			}
		}
	}
	if err := s.SerialWriter().Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.WaitSeals()
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// resealMeta changes container id's metadata in dir's container log, as a
// re-seal of the same data with other entries.
func resealMeta(t *testing.T, dir string, id uint32, change func([]blockstore.ChunkMeta)) {
	t.Helper()
	be, err := blockstore.OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close() //nolint:errcheck // test setup
	ctx := context.Background()
	infos, err := be.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	data, err := be.ReadData(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	info := infos[id]
	change(info.Entries)
	if err := be.Seal(ctx, info, data); err != nil {
		t.Fatal(err)
	}
}

// dropSpy is the IndexDropper: it notes, per container, whether the store
// still had it sealed when its index state was purged.
type dropSpy struct {
	s        *container.Store
	dropped  []uint32
	unsealed []uint32
}

func (d *dropSpy) DropFromIndex(cid uint32) int {
	d.dropped = append(d.dropped, cid)
	if !d.s.Sealed(cid) {
		d.unsealed = append(d.unsealed, cid)
	}
	return 3
}

// TestRepairQuarantinesExactlyTheDamagedContainer damages container 1 of a
// file-backed store one way per row — bad metadata (a zero-size entry, an
// entry outside the data section, an overlapping entry), a torn data section,
// a flipped data byte — and repairs: container 1 and nothing else is
// quarantined, with the row's reason; its index state is dropped while it is
// still sealed; the lost backups are exactly the recipes that cross it; and
// the quarantine survives a reopen. A clean store quarantines nothing.
func TestRepairQuarantinesExactlyTheDamagedContainer(t *testing.T) {
	ctx := context.Background()
	dataFile := func(dir string) string { return filepath.Join(dir, "containers", "000001.data") }
	for _, row := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		reason string // "" for a clean store
	}{
		{"clean", func(*testing.T, string) {}, ""},
		{"zero-size entry", func(t *testing.T, dir string) {
			resealMeta(t, dir, 1, func(m []blockstore.ChunkMeta) { m[3].Size = 0 })
		}, "entry 3: zero size"},
		{"entry outside the data section", func(t *testing.T, dir string) {
			resealMeta(t, dir, 1, func(m []blockstore.ChunkMeta) { m[7].Offset += 4096 })
		}, "entry 7 outside data section"},
		{"overlapping entry", func(t *testing.T, dir string) {
			resealMeta(t, dir, 1, func(m []blockstore.ChunkMeta) { m[5].Offset = m[4].Offset + 100 })
		}, "entry 5 overlaps previous"},
		{"torn data section", func(t *testing.T, dir string) {
			if err := os.Truncate(dataFile(dir), 1000); err != nil {
				t.Fatal(err)
			}
		}, "data section unreadable"},
		{"hash mismatch", func(t *testing.T, dir string) {
			f, err := os.OpenFile(dataFile(dir), os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close() //nolint:errcheck // test setup
			if _, err := f.WriteAt([]byte{0xEE}, 2*500+17); err != nil {
				t.Fatal(err)
			}
		}, "entry 2: content hash mismatch"},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			recs := buildFileStore(t, dir)
			row.damage(t, dir)
			s, be := openFileStore(t, dir)
			spy := &dropSpy{s: s}
			res, err := Repair(ctx, s, spy, recs, true)
			if err != nil {
				t.Fatal(err)
			}
			wantQ, wantLost := []uint32{1}, []string{"first", "third"}
			if row.reason == "" {
				wantQ, wantLost = nil, nil
			}
			if !slices.Equal(res.Quarantined, wantQ) || !slices.Equal(spy.dropped, wantQ) || !slices.Equal(res.LostBackups, wantLost) {
				t.Fatalf("quarantined %v, index dropped for %v, lost %v; want %v, %v, %v",
					res.Quarantined, spy.dropped, res.LostBackups, wantQ, wantQ, wantLost)
			}
			if len(spy.unsealed) != 0 {
				t.Fatalf("index state of %v was dropped after the container left the store", spy.unsealed)
			}
			if row.reason == "" {
				return
			}
			if !strings.Contains(res.Reasons[1], row.reason) || res.IndexDropped != 3 {
				t.Fatalf("reason %q, %d index entries dropped; want %q, 3", res.Reasons[1], res.IndexDropped, row.reason)
			}
			if s.Sealed(1) || !s.Sealed(0) || !s.Sealed(2) || !strings.Contains(res.String(), "quarantined 1") {
				t.Fatalf("after the repair: sealed 0/1/2 = %v/%v/%v; %s", s.Sealed(0), s.Sealed(1), s.Sealed(2), res)
			}
			if err := be.Close(); err != nil {
				t.Fatal(err)
			}
			// The quarantine record is what a reopen replays.
			re, reBe := openFileStore(t, dir)
			defer reBe.Close() //nolint:errcheck // test teardown
			if re.Sealed(1) || re.NumContainers() != 2 {
				t.Fatalf("after a reopen container 1 is sealed: %v (%d containers)", re.Sealed(1), re.NumContainers())
			}
			note, err := os.ReadFile(filepath.Join(dir, "quarantine", "000001.reason"))
			if err != nil || !strings.Contains(string(note), row.reason) {
				t.Fatalf("quarantine note %q (%v)", note, err)
			}
			for _, suffix := range []string{"data", "meta"} {
				if _, err := os.Stat(filepath.Join(dir, "quarantine", fmt.Sprintf("000001.%s", suffix))); err != nil {
					t.Fatalf("quarantined %s: %v", suffix, err)
				}
			}
			if rep, err := Check(ctx, re, nil, recs[1:2], true); err != nil || !rep.OK() {
				t.Fatalf("the backup that lies in container 2 alone: %v %v", err, rep.Problems)
			}
		})
	}
}

// TestRepairNeedsADataStoringBackendToVerify: verifyData on a metadata-only
// store is refused before anything is looked at.
func TestRepairNeedsADataStoringBackendToVerify(t *testing.T) {
	s, _ := rig(t, false)
	if _, err := Repair(context.Background(), s, nil, nil, true); err == nil {
		t.Fatal("verifyData on a metadata-only store must error")
	}
}
