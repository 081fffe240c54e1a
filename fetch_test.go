package repro

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"

	"repro/internal/blockstore"
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

// TestSectionReadsWithAndWithoutCache: the merge, Check(verify) and
// Repair(verify) read sealed containers through the one fetch, with the
// shared data cache at 0 and at 64 MiB. Both ways every route reads the same
// sections byte for byte and reports the same, and a torn section is
// ErrCorrupt on every route.
func TestSectionReadsWithAndWithoutCache(t *testing.T) {
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
	// forgotten so the merge has victims.
	open := func(t *testing.T, cacheBytes int64, tear uint32) (*Store, *sectionSpy) {
		t.Helper()
		spy := &sectionSpy{tear: tear}
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 64 << 20, RestoreCacheBytes: cacheBytes,
			WrapBackend: func(be blockstore.Backend) blockstore.Backend { spy.Backend = be; return spy }})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		ingestGens(t, s, 7, 4)
		for _, b := range s.Backups()[:2] {
			s.Forget(b.Label)
		}
		spy.seen = make(map[uint32][32]byte)
		spy.order = nil
		return s, spy
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			var got []outcome
			for _, cacheBytes := range []int64{0, 64 << 20} {
				s, spy := open(t, cacheBytes, 0)
				report, err := route.run(s)
				if err != nil {
					t.Fatalf("cache %d: %v", cacheBytes, err)
				}
				if len(spy.seen) == 0 {
					t.Fatalf("cache %d: the %s read no section: nothing was tested", cacheBytes, route.name)
				}
				got = append(got, outcome{spy.seen, report})

				// Tear the first section this route read, on a fresh store.
				torn := spy.order[0]
				s, _ = open(t, cacheBytes, torn+1)
				report, err = route.run(s)
				if route.name == "merge" {
					if !errors.Is(err, blockstore.ErrCorrupt) {
						t.Fatalf("cache %d: merge over torn container %d: %v, want ErrCorrupt", cacheBytes, torn, err)
					}
				} else if err != nil || !strings.Contains(report, blockstore.ErrCorrupt.Error()) {
					t.Fatalf("cache %d: %s over torn container %d: %v, report %s", cacheBytes, route.name, torn, err, report)
				}
			}
			if !maps.Equal(got[0].seen, got[1].seen) {
				t.Fatalf("the %s read other sections with the cache than without", route.name)
			}
			if got[0].report != got[1].report {
				t.Fatalf("the %s reports differently with the cache:\n  without %s\n  with    %s", route.name, got[0].report, got[1].report)
			}
		})
	}
}
