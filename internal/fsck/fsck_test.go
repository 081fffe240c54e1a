package fsck

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/enginetest"
	"repro/internal/maintenance"
)

func rig(t *testing.T, storeData bool) (*container.Store, *cindex.Index) {
	t.Helper()
	var clk disk.Clock
	s, err := container.NewStore(disk.NewDevice(disk.DefaultModel(), &clk, storeData),
		container.Config{DataCap: 4096, MaxChunks: 16})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cindex.New(disk.NewDevice(disk.DefaultModel(), &clk, false), cindex.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	return s, ix
}

func buildClean(t *testing.T, s *container.Store, ix *cindex.Index) *chunk.Recipe {
	t.Helper()
	rec := &chunk.Recipe{Label: "clean"}
	for i := 0; i < 12; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 500)
		c := chunk.New(data)
		loc := mustWrite(s, c, uint64(i/4+1))
		ix.Insert(c.FP, loc)
		rec.Append(c.FP, c.Size, loc)
	}
	s.SerialWriter().Finish(context.Background())
	return rec
}

func TestCleanStorePasses(t *testing.T) {
	s, ix := rig(t, true)
	rec := buildClean(t, s, ix)
	rep, err := Check(context.Background(), s, ix, []*chunk.Recipe{rec}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store flagged: %v", rep.Problems)
	}
	if rep.MetaEntries != 12 || rep.RecipeRefs != 12 || rep.IndexEntries != 12 || rep.HashedChunks != 12 {
		t.Fatalf("report counts: %+v", rep)
	}
	if !strings.Contains(rep.String(), "OK") {
		t.Fatal("String should report OK")
	}
}

// TestCheckAndRepairChargeNothing: fsck is measurement apparatus. Check and
// Repair re-read and re-hash every chunk, yet leave the store clock, the
// device's Seeks, Reads and BytesRead, and its head where they found them.
func TestCheckAndRepairChargeNothing(t *testing.T) {
	ctx := context.Background()
	s, ix := rig(t, true)
	rec := buildClean(t, s, ix)
	dev := s.Device()
	dev.AccountRead(s.DataStart(1), 100) // the head is parked inside container 1
	clock0, stats0 := dev.Clock().Now(), dev.Stats()
	if rep, err := Check(ctx, s, ix, []*chunk.Recipe{rec}, true); err != nil || !rep.OK() || rep.HashedChunks != 12 {
		t.Fatalf("check: %v %v, %d chunks hashed", err, rep.Problems, rep.HashedChunks)
	}
	if res, err := Repair(ctx, s, nil, []*chunk.Recipe{rec}, true); err != nil || len(res.Quarantined) != 0 {
		t.Fatalf("repair: %v, quarantined %v", err, res.Quarantined)
	}
	if now, st := dev.Clock().Now(), dev.Stats(); now != clock0 || st != stats0 {
		t.Fatalf("fsck charged the device: clock %v → %v, stats %v → %v", clock0, now, stats0, st)
	}
	dev.AccountRead(s.DataStart(1)+100, 100)
	if st := dev.Stats(); st.Seeks != stats0.Seeks {
		t.Fatal("fsck moved the device head: a read that continues the parked one seeks")
	}
}

func TestVerifyDataRequiresStoringDevice(t *testing.T) {
	s, ix := rig(t, false)
	buildClean(t, s, ix)
	if _, err := Check(context.Background(), s, ix, nil, true); err == nil {
		t.Fatal("verifyData on hole device must error")
	}
}

func TestDetectsBogusIndexEntry(t *testing.T) {
	s, ix := rig(t, false)
	buildClean(t, s, ix)
	// Index entry pointing at an offset with no metadata entry.
	ix.Insert(chunk.Of([]byte("ghost")), chunk.Location{Container: 0, Offset: 99999, Size: 10})
	rep, err := Check(context.Background(), s, ix, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("bogus index entry not detected")
	}
}

func TestDetectsIndexFingerprintMismatch(t *testing.T) {
	s, ix := rig(t, false)
	rec := buildClean(t, s, ix)
	// Repoint an index entry at a different chunk's location.
	ix.Update(rec.Refs[0].FP, rec.Refs[1].Loc)
	rep, _ := Check(context.Background(), s, ix, nil, false)
	if rep.OK() {
		t.Fatal("fingerprint mismatch not detected")
	}
}

func TestDetectsCorruptRecipeRef(t *testing.T) {
	s, ix := rig(t, false)
	rec := buildClean(t, s, ix)
	rec.Refs[3].Loc.Offset += 7 // point into the middle of a chunk
	rep, _ := Check(context.Background(), s, ix, []*chunk.Recipe{rec}, false)
	if rep.OK() {
		t.Fatal("corrupt recipe ref not detected")
	}
}

func TestDetectsUnsealedReference(t *testing.T) {
	s, ix := rig(t, false)
	rec := buildClean(t, s, ix)
	rec.Refs[0].Loc.Container = 999
	rep, _ := Check(context.Background(), s, ix, []*chunk.Recipe{rec}, false)
	if rep.OK() {
		t.Fatal("unsealed container reference not detected")
	}
}

func TestDetectsContentCorruption(t *testing.T) {
	s, ix := rig(t, true)
	rec := buildClean(t, s, ix)
	// Claim a different fingerprint for a valid location/size pair: the
	// metadata check catches the lie before hashing even runs.
	rec.Refs[2].FP = chunk.Of([]byte("lies"))
	rep, _ := Check(context.Background(), s, ix, []*chunk.Recipe{rec}, true)
	if rep.OK() {
		t.Fatal("content lie not detected")
	}
}

func TestProblemListCapped(t *testing.T) {
	s, ix := rig(t, false)
	rec := buildClean(t, s, ix)
	// Make hundreds of bad refs.
	var bad chunk.Recipe
	bad.Label = "bad"
	for i := 0; i < 500; i++ {
		r := rec.Refs[0]
		r.Loc.Offset += int64(i + 1)
		bad.Refs = append(bad.Refs, r)
	}
	rep, _ := Check(context.Background(), s, ix, []*chunk.Recipe{&bad}, false)
	if len(rep.Problems) > 100 {
		t.Fatalf("problem list not capped: %d", len(rep.Problems))
	}
}

// memRecipes is the retained set as maintenance.RecipeStore sees it.
type memRecipes []*chunk.Recipe

func (m memRecipes) Snapshot() []*chunk.Recipe { return append([]*chunk.Recipe(nil), m...) }

func (m memRecipes) Replace(_ context.Context, updated []*chunk.Recipe) error {
	for _, u := range updated {
		for i := range m {
			if m[i].Label == u.Label {
				m[i] = u
			}
		}
	}
	return nil
}

type openGate struct{}

func (openGate) Exclusive(fn func() error) error { return fn() }

func TestEngineAndGCLeaveConsistentState(t *testing.T) {
	// The headline use: after a DeFrag run plus garbage collection, every
	// invariant holds and all content hashes match.
	cfg := core.DefaultConfig(128 << 20)
	cfg.StoreData = true
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gens := enginetest.RunGenerations(t, eng, enginetest.SmallConfig(41), 6)
	// Retain the newer half: the forgotten generations' exclusive copies are
	// the garbage compaction has to find.
	var recipes memRecipes
	for _, g := range gens[3:] {
		recipes = append(recipes, g.Recipe)
	}
	live := maintenance.NewLive(eng.Containers())
	for _, r := range recipes {
		live.Add(r)
	}
	pass, err := maintenance.New(maintenance.Config{
		Containers: eng.Containers(), Index: eng.Index(), Recipes: recipes,
		Gate: openGate{}, Dropper: eng, Clock: eng.Clock(), Live: live,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := pass.Compact(context.Background(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersMerged == 0 {
		t.Fatal("compaction dropped nothing: the check below would test an untouched store")
	}
	rep, err := Check(context.Background(), eng.Containers(), eng.Index(), recipes, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-GC inconsistency: %v", rep.Problems[:min(5, len(rep.Problems))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// mustWrite appends c through the store frontier; the in-memory backends
// used by these tests cannot fail, so any error is a test bug.
func mustWrite(s *container.Store, c chunk.Chunk, seg uint64) chunk.Location {
	loc, err := s.SerialWriter().Write(context.Background(), c, seg)
	if err != nil {
		panic(err)
	}
	return loc
}
