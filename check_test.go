package repro

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/blockstore"
)

func TestCheckCleanStoreAllEngines(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind EngineKind) {
		s, err := Open(Options{Engine: kind, StoreData: true, ExpectedBytes: 32 << 20, Alpha: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		data := randStream(2<<20, int64(kind)*3+1)
		s.Backup(context.Background(), "a", bytes.NewReader(data))
		s.Backup(context.Background(), "b", bytes.NewReader(data))
		rep, err := s.Check(context.Background(), true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("clean %s store flagged: %v", kind, rep.Problems)
		}
		if rep.RecipeRefs == 0 || rep.MetaEntries == 0 || rep.HashedChunks == 0 {
			t.Fatalf("report counts: %+v", rep)
		}
	})
}

func TestCheckAfterCompact(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 64 << 20})
	data1 := randStream(3<<20, 51)
	// Build overlapping streams so rewrites (and thus garbage) occur.
	data2 := append(append([]byte{}, data1[:1<<20]...), randStream(2<<20, 52)...)
	s.Backup(context.Background(), "a", bytes.NewReader(data1))
	s.Backup(context.Background(), "b", bytes.NewReader(data2))
	if _, err := s.Compact(context.Background(), 0.9); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-compact store flagged: %v", rep.Problems)
	}
}

func TestCheckVerifyRequiresStoreData(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, ExpectedBytes: 16 << 20})
	s.Backup(context.Background(), "a", bytes.NewReader(randStream(1<<20, 53)))
	if _, err := s.Check(context.Background(), true); err == nil {
		t.Fatal("verifyData without StoreData must error")
	}
	rep, err := s.Check(context.Background(), false)
	if err != nil || !rep.OK() {
		t.Fatalf("metadata-only check: %v %v", err, rep.Problems)
	}
}

// TestCheckReadsEachContainerOnce: Check(verifyData) fetches each sealed
// container the retained recipes reference exactly once, however often their
// refs cross between containers, and no other.
func TestCheckReadsEachContainerOnce(t *testing.T) {
	var counts *blockstore.Counting
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend { counts = blockstore.NewCounting(be); return counts }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestGens(t, s, 7, 6)
	referenced := map[uint32]bool{}
	switches := 0
	for _, b := range s.Backups() {
		refs := b.recipe().Refs
		for i, ref := range refs {
			referenced[ref.Loc.Container] = true
			if i > 0 && ref.Loc.Container != refs[i-1].Loc.Container {
				switches++
			}
		}
	}
	if switches <= len(referenced) {
		t.Fatalf("%d container switches over %d containers: the store does not interleave, nothing is tested", switches, len(referenced))
	}
	counts.ResetCounts()
	rep, err := s.Check(context.Background(), true)
	if err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	if got := counts.DataSectionReads(); got != int64(len(referenced)) {
		t.Fatalf("Check read %d sections for %d referenced containers", got, len(referenced))
	}
}
