package container

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/disk"
	"repro/internal/telemetry"
)

// stageConfig has containers of four stage pieces.
func stageConfig() Config { return Config{DataCap: 4 * stagePiece, MaxChunks: 512} }

// newFileStore is a store over a file backend in a fresh directory, reached
// through wrap (nil: the raw backend).
func newFileStore(t *testing.T, wrap func(*blockstore.File) blockstore.Backend) (*Store, *blockstore.File) {
	t.Helper()
	file, err := blockstore.OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() }) //nolint:errcheck // test teardown
	var be blockstore.Backend = file
	if wrap != nil {
		be = wrap(file)
	}
	var clk disk.Clock
	s, err := NewStoreWithBackend(disk.NewDevice(disk.DefaultModel(), &clk, true), stageConfig(), be)
	if err != nil {
		t.Fatal(err)
	}
	return s, file
}

// seededChunks cuts n seeded bytes into chunks of size bytes.
func seededChunks(seed int64, n, size int) []chunk.Chunk {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	var out []chunk.Chunk
	for off := 0; off < n; off += size {
		out = append(out, chunk.New(data[off:min(off+size, n)]))
	}
	return out
}

func tempFiles(t *testing.T, f *blockstore.File) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(f.Dir(), "containers", ".*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(ents)
}

func stagedBytes() int64 {
	return telemetry.NewCounter("container_staged_bytes_total", "").Value()
}

func sealsStaged() int64 {
	return telemetry.NewCounter("container_seals_staged_total", "").Value()
}

// TestWriterStagesFillToTheFile: over a raw file backend, and over a wrapped
// one that was named with StageTo, every whole piece of every container is in
// the container's file before Seal is called, Seal is still handed the whole
// section, and what is read back — by this store and by one reopened over the
// directory — is what was written. A wrapped backend nobody named stages
// nothing and stores the same.
func TestWriterStagesFillToTheFile(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name          string
		wrap, stageTo bool
	}{{"raw", false, false}, {"wrapped and named", true, true}, {"wrapped, not named", true, false}} {
		t.Run(tc.name, func(t *testing.T) {
			var spy *slowSealBackend
			var wrap func(*blockstore.File) blockstore.Backend
			if tc.wrap {
				wrap = func(f *blockstore.File) blockstore.Backend {
					spy = &slowSealBackend{Backend: f}
					return spy
				}
			}
			s, file := newFileStore(t, wrap)
			if tc.stageTo {
				s.StageTo(file)
			}
			bytes0, seals0 := stagedBytes(), sealsStaged()
			chunks := seededChunks(11, 9*stagePiece+70_000, 60_000) // two full containers and a third of one piece
			w := s.NewWriter(nil)
			var locs []chunk.Location
			for _, c := range chunks {
				loc, err := w.Write(ctx, c, 1)
				if err != nil {
					t.Fatal(err)
				}
				locs = append(locs, loc)
			}
			if err := w.Finish(ctx); err != nil {
				t.Fatal(err)
			}
			var wantBytes, wantSeals int64
			if !tc.wrap || tc.stageTo {
				for id := 0; id < s.Slots(); id++ {
					if pieces := s.DataFill(uint32(id)) / stagePiece; pieces > 0 {
						wantBytes += pieces * stagePiece
						wantSeals++
					}
				}
				if wantSeals != 3 {
					t.Fatalf("%d containers with a whole piece, want 3", wantSeals)
				}
			}
			if got := stagedBytes() - bytes0; got != wantBytes {
				t.Errorf("container_staged_bytes_total moved by %d, want %d", got, wantBytes)
			}
			if got := sealsStaged() - seals0; got != wantSeals {
				t.Errorf("container_seals_staged_total moved by %d, want %d", got, wantSeals)
			}
			if spy != nil && spy.seals != s.NumContainers() {
				t.Errorf("the wrapper saw %d seals for %d containers", spy.seals, s.NumContainers())
			}
			if left := tempFiles(t, file); len(left) != 0 {
				t.Errorf("temp files left after Finish: %v", left)
			}

			check := func(s *Store, which string) {
				t.Helper()
				for i, loc := range locs {
					got, err := readChunk(ctx, s, loc)
					if err != nil || !bytes.Equal(got, chunks[i].Data) {
						t.Fatalf("%s: chunk %d reads back differently (%v)", which, i, err)
					}
				}
			}
			check(s, "this store")
			if err := file.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := blockstore.OpenFile(file.Dir(), true)
			if err != nil {
				t.Fatal(err)
			}
			defer again.Close() //nolint:errcheck // test teardown
			var clk disk.Clock
			s2, err := NewStoreWithBackend(disk.NewDevice(disk.DefaultModel(), &clk, true), stageConfig(), again)
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Adopt(ctx); err != nil {
				t.Fatal(err)
			}
			check(s2, "reopened")
		})
	}
}

// TestAbandonedContainersUnstage: every way a writer gives up a container it
// was staging removes the temp file and closes its descriptor — a Seal that
// failed above the file, a Flush that returns the previous persist's error,
// and Discard.
func TestAbandonedContainersUnstage(t *testing.T) {
	ctx := context.Background()
	var be *slowSealBackend
	s, file := newFileStore(t, func(f *blockstore.File) blockstore.Backend {
		be = &slowSealBackend{Backend: f}
		return be
	})
	s.StageTo(file)
	fds := openFDs(t)
	settled := func(when string, temps int) {
		t.Helper()
		if got := tempFiles(t, file); len(got) != temps || openFDs(t) != fds+temps {
			t.Fatalf("%s: temp files %v and %d descriptors more, want %d of each", when, got, openFDs(t)-fds, temps)
		}
	}
	fill := func(w *Writer, seed int64, n int) error {
		for _, c := range seededChunks(seed, n, 64<<10) {
			if _, err := w.Write(ctx, c, 1); err != nil {
				return err
			}
		}
		if w.stageCh != nil {
			<-w.stageCh // the pieces handed over so far are in the file
		}
		return nil
	}

	sentinel := errors.New("backend exploded")
	gate := make(chan struct{})
	be.mu.Lock()
	be.gate, be.sealErr = gate, sentinel
	be.mu.Unlock()
	w := s.NewWriter(nil)
	// The first container fills and its Seal hangs above the file; the second
	// is half full behind it.
	if err := fill(w, 1, 6*stagePiece); err != nil {
		t.Fatal(err)
	}
	settled("one container sealing, one filling", 2)
	close(gate)
	s.WaitSeals()
	settled("after the Seal failed above the file", 1)
	if err := w.Flush(ctx); !errors.Is(err, sentinel) {
		t.Fatalf("Flush: %v, want the previous persist's error", err)
	}
	settled("after Flush gave the open container up", 0)
	if err := w.Finish(ctx); err != nil {
		t.Fatalf("Finish after the failed Flush: %v", err)
	}
	if s.NumContainers() != 0 {
		t.Fatalf("%d containers sealed, want none", s.NumContainers())
	}

	be.mu.Lock()
	be.gate, be.sealErr = nil, nil
	be.mu.Unlock()
	w = s.NewWriter(nil)
	if err := fill(w, 2, 5*stagePiece+stagePiece/2); err != nil {
		t.Fatal(err)
	}
	w.Discard()
	settled("after Discard", 0)
	if w.data != nil || w.spare != nil || w.hasOpen {
		t.Fatal("Discard left the writer holding a buffer or an open container")
	}
	if s.NumContainers() != 1 {
		t.Fatalf("%d containers sealed, want the one that was full before Discard", s.NumContainers())
	}
	w.Discard() // again, and after Finish, is nothing
	if err := w.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	settled("at the end", 0)
}
