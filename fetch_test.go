package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/workload"
)

// sectionSpy records a digest of every data section the backend under the
// store returns, and cuts the section of container tear, when set, to half
// its length: the torn write the container layer must report as ErrCorrupt.
type sectionSpy struct {
	blockstore.Backend
	tear  uint32 // +1: 0 tears nothing
	mu    sync.Mutex
	order []uint32
	seen  map[uint32][32]byte
}

func (p *sectionSpy) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	out, err := p.Backend.ReadDataRange(ctx, ids)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, id := range ids {
		if id+1 == p.tear {
			out[i] = out[i][:len(out[i])/2]
		}
		p.order = append(p.order, id)
		p.seen[id] = sha256.Sum256(out[i])
	}
	return out, nil
}

func (p *sectionSpy) Drop(ctx context.Context, ids []uint32, reason string) error {
	return p.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

func (p *sectionSpy) Quarantine(ctx context.Context, id uint32, reason string) error {
	return p.Backend.(blockstore.Quarantiner).Quarantine(ctx, id, reason)
}

// TestSectionReadsOnEveryRoute: the merge, Check(verify) and Repair(verify)
// read sealed containers through the one fetch. Every route reads whole
// sections, byte for byte what the backend holds, reads the same ones and
// reports the same on an identical store, and a torn section is ErrCorrupt on
// every route.
func TestSectionReadsOnEveryRoute(t *testing.T) {
	type outcome struct {
		seen   map[uint32][32]byte
		report string
	}
	routes := []struct {
		name string
		run  func(*Store) (string, error)
	}{
		{"merge", func(s *Store) (string, error) {
			cs, err := s.Compact(context.Background(), 0.95)
			return fmt.Sprintf("%+v", cs), err
		}},
		{"check", func(s *Store) (string, error) {
			rep, err := s.Check(context.Background(), true)
			return fmt.Sprintf("%+v", rep), err
		}},
		{"repair", func(s *Store) (string, error) {
			rep, err := s.Repair(context.Background(), true)
			return fmt.Sprintf("%+v", rep), err
		}},
	}
	// open builds the same store every time: four generations, the first two
	// forgotten so the merge has victims. It returns the digest of every
	// sealed section as the backend holds it.
	open := func(t *testing.T, tear uint32) (*Store, *sectionSpy, map[uint32][32]byte) {
		t.Helper()
		spy := &sectionSpy{tear: tear}
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 64 << 20,
			WrapBackend: func(be blockstore.Backend) blockstore.Backend { spy.Backend = be; return spy }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		ingestGens(t, s, 7, 4)
		for _, b := range s.Backups()[:2] {
			s.Forget(b.Label)
		}
		held := make(map[uint32][32]byte)
		cs := s.eng.Containers()
		for id := uint32(0); int(id) < cs.Slots(); id++ {
			if !cs.Sealed(id) {
				continue
			}
			whole, err := spy.Backend.ReadDataRange(context.Background(), []uint32{id})
			if err != nil {
				t.Fatal(err)
			}
			held[id] = sha256.Sum256(whole[0])
		}
		spy.seen = make(map[uint32][32]byte)
		spy.order = nil
		return s, spy, held
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			var got []outcome
			var torn uint32
			for run := 0; run < 2; run++ {
				s, spy, held := open(t, 0)
				report, err := route.run(s)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if len(spy.seen) == 0 {
					t.Fatalf("the %s read no section: nothing was tested", route.name)
				}
				for id, sum := range spy.seen {
					if sum != held[id] {
						t.Fatalf("the %s read container %d other than whole, as the backend holds it", route.name, id)
					}
				}
				got = append(got, outcome{spy.seen, report})
				torn = spy.order[0]
			}
			if !maps.Equal(got[0].seen, got[1].seen) {
				t.Fatalf("the %s read other sections on an identical store", route.name)
			}
			if got[0].report != got[1].report {
				t.Fatalf("the %s reports differently on an identical store:\n  first  %s\n  second %s", route.name, got[0].report, got[1].report)
			}

			// Tear the first section this route read, on a fresh store.
			s, _, _ := open(t, torn+1)
			report, err := route.run(s)
			if route.name == "merge" {
				if !errors.Is(err, blockstore.ErrCorrupt) {
					t.Fatalf("merge over torn container %d: %v, want ErrCorrupt", torn, err)
				}
			} else if err != nil || !strings.Contains(report, blockstore.ErrCorrupt.Error()) {
				t.Fatalf("%s over torn container %d: %v, report %s", route.name, torn, err, report)
			}
		})
	}
}

// cutAfterMapFS maps files as the operating system's does, and cuts the data
// file named cut to `to` bytes the first time it is mapped, right after: a
// file torn under a reader that has it mapped, whose next look at a page past
// the cut faults.
type cutAfterMapFS struct {
	blockstore.FS
	mu  sync.Mutex
	cut string // base name of the file to cut; "" once it is
	to  int64
}

func (c *cutAfterMapFS) OpenFile(name string, flag int) (blockstore.FSFile, error) {
	f, err := c.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return cutAfterMapFile{f, c}, nil
}

type cutAfterMapFile struct {
	blockstore.FSFile
	c *cutAfterMapFS
}

func (f cutAfterMapFile) Map(n int64) ([]byte, func() error, error) {
	data, unmap, err := f.FSFile.Map(n)
	c := f.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && c.cut != "" && filepath.Base(f.Name()) == c.cut {
		c.cut = ""
		if err := os.Truncate(f.Name(), c.to); err != nil {
			panic(err)
		}
	}
	return data, unmap, err
}

// wholeWrites keeps the writes that returned: one that faulted while it
// copied leaves nothing behind.
type wholeWrites []byte

func (w *wholeWrites) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// TestMappedFetchFaults cuts a sealed data file on the operating system's file
// system short right after a reader has mapped it — page-aligned, half of it
// — and each reader must come out of the fault with ErrCorrupt naming that
// container, and no crash: a restore with Verify on, where the fault lands in
// the fingerprint kernel, and one with it off, where it lands in the writer,
// each after bytes that are the source's; Check, which reports the container;
// and Repair, which quarantines exactly it. A section torn at seal is
// ErrCorrupt too, found before anything is mapped.
func TestMappedFetchFaults(t *testing.T) {
	ctx := context.Background()
	// open builds a three-generation file store and arms its file system to
	// cut the data file of the fullest container the newest backup reads.
	open := func(t *testing.T) (*Store, []byte, uint32) {
		t.Helper()
		fsys := &cutAfterMapFS{FS: blockstore.OS}
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20,
			Backend: FileBackend, Dir: t.TempDir(), fs: fsys})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		datas := ingestGens(t, s, 3, 3)
		cs := s.eng.Containers()
		newest := s.Backups()[len(s.Backups())-1]
		victim := newest.recipe().Refs[0].Loc.Container
		for _, r := range newest.recipe().Refs {
			if cs.DataFill(r.Loc.Container) > cs.DataFill(victim) {
				victim = r.Loc.Container
			}
		}
		page := int64(os.Getpagesize())
		if fsys.to = cs.DataFill(victim) / 2 &^ (page - 1); fsys.to < page {
			t.Fatalf("container %d holds %d bytes: too few to cut at a page", victim, cs.DataFill(victim))
		}
		fsys.cut = fmt.Sprintf("%06d.data", victim)
		return s, datas[len(datas)-1], victim
	}
	tornErr := func(t *testing.T, err error, victim uint32) {
		t.Helper()
		if !errors.Is(err, blockstore.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("container %d torn", victim)) {
			t.Fatalf("%v, want ErrCorrupt naming container %d torn", err, victim)
		}
	}
	for _, verify := range []bool{true, false} {
		t.Run(fmt.Sprintf("restore verify=%v", verify), func(t *testing.T) {
			s, want, victim := open(t)
			opts := DefaultRestoreOptions()
			opts.Verify = verify
			var out wholeWrites
			_, err := s.RestoreWith(ctx, s.Backups()[len(s.Backups())-1], &out, opts)
			tornErr(t, err, victim)
			if !bytes.HasPrefix(want, out) {
				t.Fatal("the bytes restored before the fault are not the source's")
			}
		})
	}
	t.Run("check", func(t *testing.T) {
		s, _, victim := open(t)
		rep, err := s.Check(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		prefix := fmt.Sprintf("container %d: data section unreadable: ", victim)
		if len(rep.Problems) != 1 || !strings.HasPrefix(rep.Problems[0], prefix) || !strings.Contains(rep.Problems[0], blockstore.ErrCorrupt.Error()) {
			t.Fatalf("check: %q, want one problem: container %d unreadable, corrupt", rep.Problems, victim)
		}
	})
	t.Run("repair", func(t *testing.T) {
		s, _, victim := open(t)
		res, err := s.Repair(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Quarantined, []uint32{victim}) {
			t.Fatalf("repair quarantined %v, want exactly container %d", res.Quarantined, victim)
		}
	})

	t.Run("torn at seal", func(t *testing.T) {
		tear := false
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20, Backend: FileBackend, Dir: t.TempDir(),
			WrapBackend: func(be blockstore.Backend) blockstore.Backend {
				return &sealFaults{Backend: be, tear: func(int) bool { return tear }}
			}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		wcfg := workload.DefaultConfig(5)
		wcfg.NumFiles = 8
		sched, err := workload.NewSingle(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		var newest []byte
		for g := 0; g < 5; g++ {
			b := sched.Next()
			if newest, err = io.ReadAll(b.Stream); err != nil {
				t.Fatal(err)
			}
			tear = g == 2 // the newest backup still reads what this one wrote
			if _, err := s.Backup(ctx, b.Label, bytes.NewReader(newest)); err != nil {
				t.Fatal(err)
			}
		}
		backups := s.Backups()
		var out bytes.Buffer
		_, err = s.RestoreWith(ctx, backups[len(backups)-1], &out, DefaultRestoreOptions())
		if !bytes.HasPrefix(newest, out.Bytes()) {
			t.Fatal("the bytes restored before the torn container are not the source's")
		}
		if !errors.Is(err, blockstore.ErrCorrupt) || !strings.Contains(err.Error(), "container") || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("a restore over containers torn at seal: %v, want ErrCorrupt naming a torn container", err)
		}
	})
}
