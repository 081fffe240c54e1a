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
	"strings"
	"sync"
	"sync/atomic"
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

// loanFaults is a WrapBackend wrapper that spoils one ranged loan in every
// `every` on its way to the file backend (none while every is 0: the
// maintenance merges that build a churned store take loans too), the way
// mode says:
//
//   - "short loan": the buffer handed on is one byte short of the ranges' sum;
//   - "refused loan": no buffer is handed on at all;
//   - "re-read": the read succeeds and its result is lost on the way up, so
//     the wrapper reads again, into a second loan;
//   - "shrink": the container's data file is cut to half between the
//     backend's fstat and its first pread.
//
// It counts the loans it spoilt and the ranged loans it let through.
type loanFaults struct {
	blockstore.Backend
	dir          string
	mode         string
	every        int
	seen         int
	spoilt, kept atomic.Int64
}

func (l *loanFaults) lender(ctx context.Context) (context.Context, *bool) {
	inner := blockstore.LenderFrom(ctx)
	fail := new(bool)
	if inner == nil {
		return ctx, fail
	}
	return blockstore.WithLender(ctx, func(id uint32, n int64) ([]byte, []blockstore.Range) {
		buf, want := inner(id, n)
		if want == nil || len(buf) == 0 || l.every == 0 {
			return buf, want
		}
		if l.seen++; l.seen%l.every != 0 {
			l.kept.Add(1)
			return buf, want
		}
		l.spoilt.Add(1)
		switch l.mode {
		case "short loan":
			sum := int64(0)
			for _, r := range want {
				sum += r.Len
			}
			return buf[:sum-1], want
		case "refused loan":
			return nil, nil
		case "re-read":
			*fail = true
		case "shrink":
			path := filepath.Join(l.dir, "containers", fmt.Sprintf("%06d.data", id))
			if err := os.Truncate(path, n/2); err != nil {
				panic(err)
			}
		}
		return buf, want
	}), fail
}

func (l *loanFaults) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	spoilt, lost := l.lender(ctx)
	out, err := l.Backend.ReadDataRange(spoilt, ids)
	if err == nil && *lost {
		out, err = l.Backend.ReadDataRange(ctx, ids)
	}
	return out, err
}

func (l *loanFaults) Drop(ctx context.Context, ids []uint32, reason string) error {
	return l.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

// TestPackedFetchFaults runs the ways a packed read can go wrong through a
// whole restore of a churned file-backed store, verify off so that nothing
// but the comparison with the source looks at the bytes: a lent buffer short
// of the ranges' sum and a refused loan each mix a whole, private section into
// a restore of packed ones, and a read done again lends a second buffer — those
// restores must be whole and right; a file that shrinks between fstat and a
// ranged pread, and a section torn at seal, must each stop
// the restore with ErrCorrupt naming the container, after bytes that are the
// source's.
func TestPackedFetchFaults(t *testing.T) {
	ctx := context.Background()
	opts := DefaultRestoreOptions()
	opts.Verify = false
	restore := func(t *testing.T, s *Store, b *Backup, want []byte) error {
		t.Helper()
		var out bytes.Buffer
		_, err := s.RestoreWith(ctx, b, &out, opts)
		if !bytes.HasPrefix(want, out.Bytes()) || (err == nil && out.Len() != len(want)) {
			t.Fatalf("restored %d of %d bytes (%v), and they are not the source's", out.Len(), len(want), err)
		}
		return err
	}
	for _, mode := range []string{"short loan", "refused loan", "re-read", "shrink"} {
		t.Run(mode, func(t *testing.T) {
			faults := &loanFaults{mode: mode}
			s, datas := churnedFileStore(t, Options{WrapBackend: func(be blockstore.Backend) blockstore.Backend {
				faults.Backend = be
				return faults
			}}, 42, 24, 7, 4)
			faults.dir, faults.every = s.opts.Dir, 3
			newest := s.Backups()[len(s.Backups())-1]
			err := restore(t, s, newest, datas[len(datas)-1])
			if faults.spoilt.Load() == 0 || faults.kept.Load() == 0 {
				t.Fatalf("%d loans spoilt beside %d packed: nothing was mixed", faults.spoilt.Load(), faults.kept.Load())
			}
			if mode != "shrink" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, blockstore.ErrCorrupt) || !strings.Contains(err.Error(), "container") || !strings.Contains(err.Error(), "torn") {
				t.Fatalf("a file cut under a ranged read: %v, want ErrCorrupt naming a torn container", err)
			}
		})
	}

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
		err = restore(t, s, backups[len(backups)-1], newest)
		if !errors.Is(err, blockstore.ErrCorrupt) || !strings.Contains(err.Error(), "container") || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("a restore over containers torn at seal: %v, want ErrCorrupt naming a torn container", err)
		}
	})
}
