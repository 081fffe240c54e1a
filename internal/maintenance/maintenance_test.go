package maintenance

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/cindex"
	"repro/internal/container"
	"repro/internal/disk"
	"repro/internal/fsck"
)

// rig builds a store + index pair over one clock.
func rig(t *testing.T, storeData bool) (*container.Store, *cindex.Index, *disk.Clock) {
	t.Helper()
	var clk disk.Clock
	s, err := container.NewStore(disk.NewDevice(disk.DefaultModel(), &clk, storeData),
		container.Config{DataCap: 2048, MaxChunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cindex.New(disk.NewDevice(disk.DefaultModel(), &clk, false), cindex.DefaultConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	return s, ix, &clk
}

// fileRig is rig on a file backend in a temporary directory on fsys, wrapped
// by wrap unless it is nil.
func fileRig(t *testing.T, fsys blockstore.FS, wrap func(blockstore.Backend, *disk.Device) blockstore.Backend) (*container.Store, *cindex.Index, *disk.Clock) {
	t.Helper()
	f, err := blockstore.OpenFileOn(fsys, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() }) //nolint:errcheck // test teardown
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, true)
	var be blockstore.Backend = f
	if wrap != nil {
		be = wrap(f, dev)
	}
	s, err := container.NewStoreWithBackend(dev, container.Config{DataCap: 2048, MaxChunks: 8}, be)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cindex.New(disk.NewDevice(disk.DefaultModel(), &clk, false), cindex.DefaultConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	return s, ix, &clk
}

func mustWrite(t *testing.T, s *container.Store, c chunk.Chunk, seg uint64) chunk.Location {
	t.Helper()
	loc, err := s.SerialWriter().Write(context.Background(), c, seg)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

func put(t *testing.T, s *container.Store, ix *cindex.Index, data []byte, seg uint64) (chunk.Fingerprint, chunk.Location) {
	t.Helper()
	c := chunk.New(data)
	loc := mustWrite(t, s, c, seg)
	ix.Insert(c.FP, loc)
	return c.FP, loc
}

// fakeRecipes is an in-memory RecipeStore. Once a pass is built over it
// (passFor) it keeps that pass's live table, as a store does: add counts a
// recipe, Replace moves the counts of the references it changes.
type fakeRecipes struct {
	mu       sync.Mutex
	recipes  []*chunk.Recipe
	replaces int
	live     *Live
}

// attach makes live the table f keeps, counting what f holds already.
func (f *fakeRecipes) attach(live *Live) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.live = live
	for _, r := range f.recipes {
		live.Add(r)
	}
}

func (f *fakeRecipes) Snapshot() []*chunk.Recipe {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*chunk.Recipe(nil), f.recipes...)
}

func (f *fakeRecipes) Replace(ctx context.Context, updated []*chunk.Recipe) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replaces++
	for _, u := range updated {
		for i, r := range f.recipes {
			if r.Label == u.Label {
				if f.live != nil {
					f.live.Swap(r, u)
				}
				f.recipes[i] = u
			}
		}
	}
	return nil
}

func (f *fakeRecipes) add(r *chunk.Recipe) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recipes = append(f.recipes, r)
	if f.live != nil {
		f.live.Add(r)
	}
}

func (f *fakeRecipes) byLabel(label string) *chunk.Recipe {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.recipes {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// plainGate runs fn directly, optionally after a hook (the "raced ingest")
// and before another (what happens right after a drop commit).
type plainGate struct {
	before, after func()
}

func (g *plainGate) Exclusive(fn func() error) error {
	if g.before != nil {
		g.before()
	}
	err := fn()
	if g.after != nil {
		g.after()
	}
	return err
}

func passFor(t *testing.T, s *container.Store, ix *cindex.Index, clk *disk.Clock, rs RecipeStore, gate Gate, mut func(*Config)) *Pass {
	t.Helper()
	cfg := Config{Containers: s, Index: ix, Recipes: rs, Gate: gate, Clock: clk, Live: NewLive(s)}
	if f, ok := rs.(*fakeRecipes); ok {
		if f.live == nil {
			f.attach(cfg.Live)
		}
		cfg.Live = f.live
	}
	if mut != nil {
		mut(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
	s, ix, clk := rig(t, false)
	rs := &fakeRecipes{}
	if _, err := New(Config{Containers: s, Index: ix, Recipes: rs, Gate: &plainGate{}, Clock: clk, Live: NewLive(s), UtilThreshold: 1.5}); err == nil {
		t.Fatal("out-of-range threshold must fail")
	}
}

func TestEmptyStoreEpochNoop(t *testing.T) {
	s, ix, clk := rig(t, false)
	p := passFor(t, s, ix, clk, &fakeRecipes{}, &plainGate{}, nil)
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.RefsRemapped != 0 || st.ContainersMerged != 0 {
		t.Fatalf("empty epoch did work: %+v", st)
	}
}

func TestReverseRemapMovesOldGenerationsForward(t *testing.T) {
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}

	// Gen 0: chunk A alone in container 0 (a low-fill stream tail).
	dataA := bytes.Repeat([]byte{1}, 900)
	fpA, locA0 := put(t, s, ix, dataA, 1)
	s.SerialWriter().Finish(context.Background())
	gen0 := &chunk.Recipe{Label: "gen0"}
	gen0.Append(fpA, 900, locA0)
	rs.add(gen0)

	// Gen 1: a newer copy of A (a DeFrag rewrite) plus a new chunk B fill
	// container 1 past the remap-candidacy thresholds.
	cA := chunk.New(dataA)
	locA1 := mustWrite(t, s, cA, 2)
	ix.Update(fpA, locA1)
	s.MarkDead(locA0.Container, int64(locA0.Size))
	fpB, locB := put(t, s, ix, bytes.Repeat([]byte{2}, 900), 2)
	s.SerialWriter().Finish(context.Background())
	gen1 := &chunk.Recipe{Label: "gen1"}
	gen1.Append(fpA, 900, locA1)
	gen1.Append(fpB, 900, locB)
	rs.add(gen1)

	p := passFor(t, s, ix, clk, rs, &plainGate{}, nil)
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.RefsRemapped != 1 {
		t.Fatalf("remapped %d refs, want 1 (gen0's A -> container 1): %+v", st.RefsRemapped, st)
	}
	got := rs.byLabel("gen0").Refs[0].Loc
	if got.Container != locA1.Container || got.Offset != locA1.Offset {
		t.Fatalf("gen0 ref = %+v, want the newer copy %+v", got, locA1)
	}
	// With gen0's pin gone, container 0 is fully dead and the merge phase
	// of the same epoch must have reclaimed it.
	if st.ContainersMerged != 1 {
		t.Fatalf("dead container not merged: %+v", st)
	}
	if s.Sealed(locA0.Container) {
		t.Fatal("victim container still sealed after drop")
	}
	// Every retained recipe must read back bit-exactly.
	for _, want := range []struct {
		label string
		data  [][]byte
	}{{"gen0", [][]byte{dataA}}, {"gen1", [][]byte{dataA, bytes.Repeat([]byte{2}, 900)}}} {
		r := rs.byLabel(want.label)
		for i := range r.Refs {
			b, err := readChunk(s, r.Refs[i].Loc)
			if err != nil {
				t.Fatalf("%s ref %d: %v", want.label, i, err)
			}
			if !bytes.Equal(b, want.data[i]) {
				t.Fatalf("%s ref %d corrupted after maintenance", want.label, i)
			}
		}
	}
}

func TestMergeConsolidatesLiveChunksAndDrops(t *testing.T) {
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}

	// Container 0: live chunk Y (500B, pinned) + dead chunk X (1000B, never
	// indexed): live fraction 1/3 < 0.5, a merge victim.
	dataX := bytes.Repeat([]byte{9}, 1000)
	cX := chunk.New(dataX)
	mustWrite(t, s, cX, 1)
	dataY := bytes.Repeat([]byte{7}, 500)
	fpY, locY := put(t, s, ix, dataY, 1)
	s.SerialWriter().Finish(context.Background())

	gen := &chunk.Recipe{Label: "gen0"}
	gen.Append(fpY, 500, locY)
	rs.add(gen)

	p := passFor(t, s, ix, clk, rs, &plainGate{}, nil)
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersMerged != 1 || st.ChunksMoved != 1 || st.BytesMoved != 500 {
		t.Fatalf("merge stats: %+v", st)
	}
	if st.BytesReclaimed != 1500 {
		t.Fatalf("reclaimed %d bytes, want the victim's 1500B data fill", st.BytesReclaimed)
	}
	if s.Sealed(locY.Container) {
		t.Fatal("victim still sealed")
	}
	newLoc := rs.byLabel("gen0").Refs[0].Loc
	if newLoc.Container == locY.Container {
		t.Fatal("recipe still references the victim")
	}
	if got, err := readChunk(s, newLoc); err != nil || !bytes.Equal(got, dataY) {
		t.Fatalf("moved chunk unreadable: %v", err)
	}
	// The index must agree with the recipe.
	if loc, ok := ix.Peek(fpY); !ok || loc != newLoc {
		t.Fatalf("index %v disagrees with recipe %v", loc, newLoc)
	}
	if st.SimSeconds <= 0 {
		t.Fatalf("merge charged no simulated time: %+v", st)
	}
}

// fourVictims lays out the scenario of the merge's read tests on s:
// containers 0-3 hold a dead 1000B chunk (never indexed) and a live 500B one
// pinned by gen0 each, live fraction 1/3 < 0.5, four merge victims;
// container 4, full and wholly live, is all the latest generation, gen1,
// reads. It returns gen0's chunks.
func fourVictims(t *testing.T, s *container.Store, ix *cindex.Index, rs *fakeRecipes) (live [][]byte) {
	t.Helper()
	gen0 := &chunk.Recipe{Label: "gen0"}
	for i := 0; i < 4; i++ {
		mustWrite(t, s, chunk.New(bytes.Repeat([]byte{byte(10 + i)}, 1000)), 1)
		data := bytes.Repeat([]byte{byte(20 + i)}, 500)
		fp, loc := put(t, s, ix, data, 1)
		s.SerialWriter().Finish(context.Background())
		gen0.Append(fp, 500, loc)
		live = append(live, data)
	}
	rs.add(gen0)
	gen1 := &chunk.Recipe{Label: "gen1"}
	for i := 0; i < 2; i++ {
		fp, loc := put(t, s, ix, bytes.Repeat([]byte{byte(30 + i)}, 900), 2)
		gen1.Append(fp, 900, loc)
	}
	s.SerialWriter().Finish(context.Background())
	rs.add(gen1)
	return live
}

// fetchLog is a backend that records the containers each section read is of.
type fetchLog struct {
	blockstore.Backend
	mu      sync.Mutex
	fetched []uint32
}

func (f *fetchLog) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	f.mu.Lock()
	f.fetched = append(f.fetched, ids...)
	f.mu.Unlock()
	return f.Backend.ReadDataRange(ctx, ids)
}

func (f *fetchLog) Drop(ctx context.Context, ids []uint32, reason string) error {
	return f.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

// mapCountFS counts the data sections mapped out of its files and not yet
// released, and their peak.
type mapCountFS struct {
	blockstore.FS
	mu         sync.Mutex
	live, peak int
}

func (c *mapCountFS) OpenFile(name string, flag int) (blockstore.FSFile, error) {
	f, err := c.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return mapCountFile{f, c}, nil
}

type mapCountFile struct {
	blockstore.FSFile
	c *mapCountFS
}

func (f mapCountFile) Map(n int64) ([]byte, func() error, error) {
	data, unmap, err := f.FSFile.Map(n)
	if err != nil || unmap == nil {
		return data, unmap, err
	}
	c := f.c
	c.mu.Lock()
	c.live++
	c.peak = max(c.peak, c.live)
	c.mu.Unlock()
	return data, func() error {
		c.mu.Lock()
		c.live--
		c.mu.Unlock()
		return unmap()
	}, nil
}

// TestMergeHoldsOneVictimSectionAtATime: past the latest recipe's chunks the
// merge copies victim by victim, fetches each victim once, and releases each
// victim's section after the last chunk it copies out of it. Four victims
// the latest recipe does not reference are mapped at most two at a time —
// the one being copied and the one the executor's fetcher reads ahead — not
// all four until the merge ends, and none is mapped once it has. The decode
// pool runs inline at GOMAXPROCS 1, so a section is released the moment its
// last chunk is written.
func TestMergeHoldsOneVictimSectionAtATime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var log *fetchLog
	maps := &mapCountFS{FS: blockstore.OS}
	s, ix, clk := fileRig(t, maps, func(be blockstore.Backend, _ *disk.Device) blockstore.Backend {
		log = &fetchLog{Backend: be}
		return log
	})
	rs := &fakeRecipes{}
	live := fourVictims(t, s, ix, rs)

	dev := s.Device()
	reads := dev.Stats().Reads
	p := passFor(t, s, ix, clk, rs, &plainGate{}, nil)
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersMerged != 4 || st.ChunksMoved != 4 {
		t.Fatalf("merge stats: %+v, want the four victims merged", st)
	}
	if want := []uint32{0, 1, 2, 3}; !slices.Equal(log.fetched, want) {
		t.Fatalf("the merge fetched containers %v, want each victim once: %v", log.fetched, want)
	}
	if maps.peak > 2 || maps.live != 0 {
		t.Fatalf("the merge mapped %d victim sections at once, want at most 2 (one copied, one read ahead), and left %d mapped", maps.peak, maps.live)
	}
	if got := dev.Stats().Reads - reads; got != 4 {
		t.Fatalf("the merge charged %d reads, want one per victim", got)
	}
	for i, r := range rs.byLabel("gen0").Refs {
		if got, err := readChunk(s, r.Loc); err != nil || !bytes.Equal(got, live[i]) {
			t.Fatalf("gen0 chunk %d differs after the merge: %v", i, err)
		}
	}
}

func TestGateRevalidateRemapsRacedPins(t *testing.T) {
	// A recipe committed between the scan and the gate pins a victim copy
	// that WAS moved: the commit remaps it through the moved map and the
	// drop still proceeds.
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}

	dataX := bytes.Repeat([]byte{9}, 1000)
	mustWrite(t, s, chunk.New(dataX), 1) // dead filler
	dataY := bytes.Repeat([]byte{7}, 500)
	fpY, locY := put(t, s, ix, dataY, 1)
	s.SerialWriter().Finish(context.Background())
	gen := &chunk.Recipe{Label: "gen0"}
	gen.Append(fpY, 500, locY)
	rs.add(gen)

	gate := &plainGate{before: func() {
		raced := &chunk.Recipe{Label: "raced"}
		raced.Append(fpY, 500, locY) // stale location from an LPC hit
		rs.add(raced)
	}}
	p := passFor(t, s, ix, clk, rs, gate, nil)
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersMerged != 1 || st.VictimsSkipped != 0 {
		t.Fatalf("raced-but-moved pin must not block the drop: %+v", st)
	}
	loc := rs.byLabel("raced").Refs[0].Loc
	if loc.Container == locY.Container {
		t.Fatal("raced recipe still points at the dropped victim")
	}
	if got, err := readChunk(s, loc); err != nil || !bytes.Equal(got, dataY) {
		t.Fatalf("raced recipe unreadable after commit: %v", err)
	}
}

func TestGateRevalidateSkipsRepinnedVictim(t *testing.T) {
	// A recipe committed between the scan and the gate pins a victim copy
	// the scan called dead (not moved, not in the index): the victim must
	// survive the epoch untouched.
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}

	dataX := bytes.Repeat([]byte{9}, 1000)
	cX := chunk.New(dataX)
	locX := mustWrite(t, s, cX, 1) // dead at scan time: never indexed
	dataY := bytes.Repeat([]byte{7}, 500)
	fpY, locY := put(t, s, ix, dataY, 1)
	s.SerialWriter().Finish(context.Background())
	gen := &chunk.Recipe{Label: "gen0"}
	gen.Append(fpY, 500, locY)
	rs.add(gen)

	gate := &plainGate{before: func() {
		raced := &chunk.Recipe{Label: "raced"}
		raced.Append(cX.FP, 1000, locX)
		rs.add(raced)
	}}
	p := passFor(t, s, ix, clk, rs, gate, nil)
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersMerged != 0 || st.VictimsSkipped != 1 {
		t.Fatalf("repinned victim must be skipped: %+v", st)
	}
	if !s.Sealed(locX.Container) {
		t.Fatal("skipped victim was dropped anyway")
	}
	if got, err := readChunk(s, locX); err != nil || !bytes.Equal(got, dataX) {
		t.Fatalf("repinned chunk unreadable: %v", err)
	}
	// The pinned-and-moved chunk Y is still fine through its new location.
	loc := rs.byLabel("gen0").Refs[0].Loc
	if got, err := readChunk(s, loc); err != nil || !bytes.Equal(got, dataY) {
		t.Fatalf("moved chunk unreadable: %v", err)
	}
}

func TestSparseLatestConsolidation(t *testing.T) {
	// Containers the latest generation touches only sparsely are merged
	// even when older generations keep them fully live.
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}

	// Container 0: four 500B chunks, all pinned by gen0.
	var fps []chunk.Fingerprint
	var locs []chunk.Location
	gen0 := &chunk.Recipe{Label: "gen0"}
	for i := 0; i < 4; i++ {
		fp, loc := put(t, s, ix, bytes.Repeat([]byte{byte(i + 1)}, 500), 1)
		fps, locs = append(fps, fp), append(locs, loc)
		gen0.Append(fp, 500, loc)
	}
	s.SerialWriter().Finish(context.Background())
	rs.add(gen0)
	// Latest generation references just one of the four (20% < 25%).
	gen1 := &chunk.Recipe{Label: "gen1"}
	gen1.Append(fps[2], 500, locs[2])
	rs.add(gen1)

	p := passFor(t, s, ix, clk, rs, &plainGate{}, func(c *Config) {
		c.UtilThreshold = 0.1   // fully live: only the sparse rule can fire
		c.SparseThreshold = 0.3 // latest touches 1/4 = 0.25 of the data
	})
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersMerged != 1 {
		t.Fatalf("sparsely-read container not consolidated: %+v", st)
	}
	if st.ChunksMoved != 4 {
		t.Fatalf("moved %d chunks, want all 4 live copies", st.ChunksMoved)
	}
	// The latest generation's chunk must come first in the new layout.
	want := rs.byLabel("gen1").Refs[0].Loc
	for _, r := range rs.byLabel("gen0").Refs {
		if r.Loc.Container == want.Container && r.Loc.Offset < want.Offset {
			t.Fatalf("latest generation's chunk not copied first: gen1 at %+v, gen0 has %+v", want, r.Loc)
		}
	}
	for i, r := range rs.byLabel("gen0").Refs {
		got, err := readChunk(s, r.Loc)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 500)) {
			t.Fatalf("gen0 chunk %d corrupted after consolidation: %v", i, err)
		}
	}
}

// TestMergeOfAPinnedCopyFeedsRededup pins the other way a reference comes to
// lie past the index's copy of its chunk, with no spilled stream anywhere: an
// old generation pins a copy the index no longer names (DeFrag rewrote the
// chunk into a newer container), and the merge moves that pinned copy into a
// container newer still. The next epoch's remapRefs finds the index's copy
// strictly older and repoints the reference there, and the moved copy dies.
func TestMergeOfAPinnedCopyFeedsRededup(t *testing.T) {
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}

	// Container 0: A (200B), C (1500B) and E (100B), all indexed.
	dataA, dataC, dataE, dataD := fill(1, 200), fill(2, 1500), fill(3, 100), fill(4, 1600)
	fpA, locA0 := put(t, s, ix, dataA, 1)
	fpC, locC := put(t, s, ix, dataC, 1)
	fpE, locE := put(t, s, ix, dataE, 1)
	s.SerialWriter().Finish(context.Background())
	gen0 := &chunk.Recipe{Label: "gen0"}
	gen0.Append(fpA, 200, locA0)
	gen0.Append(fpC, 1500, locC)
	rs.add(gen0)

	// Container 1: a rewrite of A, which the index follows, and D. The latest
	// generation reads container 0 only for E: too little for it to stay.
	locA1 := mustWrite(t, s, chunk.New(dataA), 2)
	ix.Update(fpA, locA1)
	s.MarkDead(locA0.Container, 200)
	fpD, locD := put(t, s, ix, dataD, 2)
	s.SerialWriter().Finish(context.Background())
	gen1 := &chunk.Recipe{Label: "gen1"}
	gen1.Append(fpA, 200, locA1)
	gen1.Append(fpE, 100, locE)
	gen1.Append(fpD, 1600, locD)
	rs.add(gen1)

	p := passFor(t, s, ix, clk, rs, &plainGate{}, nil)
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Container 0 is no remap candidate (full, nine tenths live), so gen0's A
	// stays put until the sparse rule merges container 0 away.
	moved := rs.byLabel("gen0").Refs[0].Loc
	if st.RefsRemapped != 0 || st.RefsRededuped != 0 || st.ContainersMerged != 1 || s.Sealed(locA0.Container) {
		t.Fatalf("first epoch: %+v", st)
	}
	if idx, _ := ix.Peek(fpA); idx != locA1 || moved.Container <= locA1.Container {
		t.Fatalf("after the merge gen0's A is at %+v and the index names %+v: want the reference past the index's copy", moved, idx)
	}

	st, err = p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.RefsRededuped != 1 || rs.byLabel("gen0").Refs[0].Loc != locA1 {
		t.Fatalf("second epoch re-deduped %d refs, gen0's A at %+v: want 1, onto %+v", st.RefsRededuped, rs.byLabel("gen0").Refs[0].Loc, locA1)
	}
	readBack(t, s, rs, "gen0", dataA, dataC)
	readBack(t, s, rs, "gen1", dataA, dataE, dataD)
}

// TestEpochRededupsAndRemapsInOneReplace: an epoch in which one reference is
// re-deduped (a spilled copy newer than the index's) and another is
// reverse-remapped (a stream tail with a newer copy) walks the recipes once
// and installs both with one Replace, one catalog record on a durable store.
func TestEpochRededupsAndRemapsInOneReplace(t *testing.T) {
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}

	// Container 0, a stream tail (1000 of 2048 bytes): A and X, indexed.
	dataA, dataX, dataB := fill(1, 900), fill(2, 100), fill(3, 900)
	fpA, locA0 := put(t, s, ix, dataA, 1)
	fpX, locX0 := put(t, s, ix, dataX, 1)
	s.SerialWriter().Finish(context.Background())
	gen0 := &chunk.Recipe{Label: "gen0"}
	gen0.Append(fpA, 900, locA0)
	gen0.Append(fpX, 100, locX0)
	rs.add(gen0)

	// Container 1: a rewrite of A, which the index follows; X written
	// through again without consulting the index, as a spilled stream does;
	// and B.
	locA1 := mustWrite(t, s, chunk.New(dataA), 2)
	ix.Update(fpA, locA1)
	s.MarkDead(locA0.Container, 900)
	locX1 := mustWrite(t, s, chunk.New(dataX), 2)
	fpB, locB := put(t, s, ix, dataB, 2)
	s.SerialWriter().Finish(context.Background())
	gen1 := &chunk.Recipe{Label: "gen1"}
	gen1.Append(fpA, 900, locA1)
	gen1.Append(fpX, 100, locX1)
	gen1.Append(fpB, 900, locB)
	rs.add(gen1)

	// Thresholds low enough that the epoch's merge finds no victim: the
	// walk's Replace is the epoch's only one.
	p := passFor(t, s, ix, clk, rs, &plainGate{}, func(c *Config) { c.UtilThreshold, c.SparseThreshold = 0.01, 0.01 })
	st, err := p.RunEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.RefsRemapped != 1 || st.RefsRededuped != 1 || st.ContainersMerged != 0 {
		t.Fatalf("epoch: %+v, want one ref remapped, one re-deduped, nothing merged", st)
	}
	if rs.replaces != 1 {
		t.Fatalf("epoch installed its rewrites with %d Replace calls, want 1", rs.replaces)
	}
	if got := rs.byLabel("gen0").Refs[0].Loc; got != locA1 {
		t.Fatalf("gen0's A at %+v, want remapped onto %+v", got, locA1)
	}
	if got := rs.byLabel("gen1").Refs[1].Loc; got != locX0 {
		t.Fatalf("gen1's X at %+v, want re-deduped onto %+v", got, locX0)
	}
	readBack(t, s, rs, "gen0", dataA, dataX)
	readBack(t, s, rs, "gen1", dataA, dataX, dataB)
}

// fill returns an n-byte chunk payload of one repeated byte.
// readChunk copies loc's chunk out of a charged read of its container.
func readChunk(s *container.Store, loc chunk.Location) ([]byte, error) {
	datas, err := s.ReadDataRange(context.Background(), []uint32{loc.Container})
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), s.Extract(datas[0], loc)...), nil
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// readBack asserts every reference of the recipe labelled label reads back
// as the corresponding payload.
func readBack(t *testing.T, s *container.Store, rs *fakeRecipes, label string, want ...[]byte) {
	t.Helper()
	r := rs.byLabel(label)
	if len(r.Refs) != len(want) {
		t.Fatalf("%s has %d refs, want %d", label, len(r.Refs), len(want))
	}
	for i := range r.Refs {
		got, err := readChunk(s, r.Refs[i].Loc)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("%s ref %d unreadable or corrupted after compaction: %v", label, i, err)
		}
	}
}

// halfDeadPlusLive builds container 0 = {A pinned 900B, garbage 900B} (live
// fraction exactly 0.5) and container 1 = {B pinned 900B} (fully live).
func halfDeadPlusLive(t *testing.T, s *container.Store, ix *cindex.Index, rs *fakeRecipes) {
	rec := &chunk.Recipe{Label: "gen0"}
	fp, loc := put(t, s, ix, fill(1, 900), 1)
	rec.Append(fp, 900, loc)
	mustWrite(t, s, chunk.New(fill(2, 900)), 1) // never indexed: garbage from birth
	s.SerialWriter().Finish(context.Background())
	fp, loc = put(t, s, ix, fill(3, 900), 2)
	rec.Append(fp, 900, loc)
	s.SerialWriter().Finish(context.Background())
	rs.add(rec)
}

// TestCompactPolicy pins the compact row of the merge: which containers a
// threshold selects, what survives, and what the statistics say.
func TestCompactPolicy(t *testing.T) {
	var pinned *chunk.Recipe // the recipe object one row installs, to show it is never patched in place
	rows := []struct {
		name      string
		build     func(t *testing.T, s *container.Store, ix *cindex.Index, rs *fakeRecipes)
		threshold float64
		wantErr   bool
		check     func(t *testing.T, s *container.Store, ix *cindex.Index, rs *fakeRecipes, st Stats)
	}{
		{name: "threshold below range", threshold: -0.1, wantErr: true},
		{name: "threshold above range", threshold: 1.1, wantErr: true},
		{name: "empty store is a no-op", threshold: 0.5,
			check: func(t *testing.T, _ *container.Store, _ *cindex.Index, _ *fakeRecipes, st Stats) {
				if st != (Stats{}) {
					t.Fatalf("empty store did work: %+v", st)
				}
			}},
		{name: "fully live containers untouched", threshold: 0.5,
			build: func(t *testing.T, s *container.Store, ix *cindex.Index, rs *fakeRecipes) {
				rec := &chunk.Recipe{Label: "gen0"}
				for i := 0; i < 10; i++ {
					fp, loc := put(t, s, ix, fill(byte(i), 300), 1)
					rec.Append(fp, 300, loc)
				}
				s.SerialWriter().Finish(context.Background())
				rs.add(rec)
			},
			check: func(t *testing.T, _ *container.Store, _ *cindex.Index, rs *fakeRecipes, st Stats) {
				if st.ContainersMerged != 0 || st.ChunksMoved != 0 || rs.replaces != 0 {
					t.Fatalf("fully live store must not be touched: %+v, %d replaces", st, rs.replaces)
				}
			}},
		{name: "threshold 0 selects nothing", threshold: 0, build: halfDeadPlusLive,
			check: func(t *testing.T, _ *container.Store, _ *cindex.Index, _ *fakeRecipes, st Stats) {
				if st.ContainersMerged != 0 || st.ChunksMoved != 0 {
					t.Fatalf("a live fraction is never below 0: %+v", st)
				}
			}},
		{name: "live fraction equal to the threshold stays", threshold: 0.5, build: halfDeadPlusLive,
			check: func(t *testing.T, _ *container.Store, _ *cindex.Index, _ *fakeRecipes, st Stats) {
				if st.ContainersMerged != 0 {
					t.Fatalf("the comparison is strict; 0.5 is not below 0.5: %+v", st)
				}
			}},
		{name: "live fraction just below the threshold goes", threshold: 0.51, build: halfDeadPlusLive,
			check: func(t *testing.T, s *container.Store, _ *cindex.Index, rs *fakeRecipes, st Stats) {
				if st.ContainersMerged != 1 || st.ChunksMoved != 1 || st.BytesReclaimed != 1800 {
					t.Fatalf("the half-dead container alone must go: %+v", st)
				}
				readBack(t, s, rs, "gen0", fill(1, 900), fill(3, 900))
			}},
		{name: "threshold 1 selects exactly the containers with garbage", threshold: 1, build: halfDeadPlusLive,
			check: func(t *testing.T, s *container.Store, _ *cindex.Index, rs *fakeRecipes, st Stats) {
				if st.ContainersMerged != 1 || s.Sealed(0) || !s.Sealed(1) {
					t.Fatalf("container 0 must go and fully-live container 1 must stay: %+v", st)
				}
				readBack(t, s, rs, "gen0", fill(1, 900), fill(3, 900))
			}},
		// Container 0 = {superseded A, pinned B}, container 1 = {A's newer
		// copy, C}: no retained recipe references A or C, so container 1 is
		// all dead though the index names both its copies.
		{name: "superseded copy reclaimed, pinned copy moved copy-on-write", threshold: 0.9,
			build: func(t *testing.T, s *container.Store, ix *cindex.Index, rs *fakeRecipes) {
				fpDead, _ := put(t, s, ix, fill(1, 900), 1)
				fpLive, locLive := put(t, s, ix, fill(2, 900), 1)
				s.SerialWriter().Finish(context.Background())
				// A rewrite supersedes fpDead with a copy in container 1.
				ix.Update(fpDead, mustWrite(t, s, chunk.New(fill(1, 900)), 2))
				put(t, s, ix, fill(3, 900), 2)
				s.SerialWriter().Finish(context.Background())
				pinned = &chunk.Recipe{Label: "gen0"}
				pinned.Append(fpLive, 900, locLive)
				rs.add(pinned)
			},
			check: func(t *testing.T, s *container.Store, ix *cindex.Index, rs *fakeRecipes, st Stats) {
				if st.ContainersMerged != 2 || st.BytesReclaimed != 3600 || st.BytesMoved != 900 || st.RefsPatched != 1 {
					t.Fatalf("half-dead and all-dead container: %+v", st)
				}
				ref := rs.byLabel("gen0").Refs[0]
				if ref.Loc.Container == 0 {
					t.Fatal("recipe still references the dropped container")
				}
				if pinned.Refs[0].Loc.Container != 0 {
					t.Fatal("the snapshot recipe was patched in place")
				}
				if loc, ok := ix.Peek(ref.FP); !ok || loc != ref.Loc {
					t.Fatalf("index %v and recipe %v disagree", loc, ref.Loc)
				}
				readBack(t, s, rs, "gen0", fill(2, 900))
			}},
		{name: "no recipes: nothing survives, nor its index entries", threshold: 0.9,
			build: func(t *testing.T, s *container.Store, ix *cindex.Index, _ *fakeRecipes) {
				put(t, s, ix, fill(4, 900), 1)
				mustWrite(t, s, chunk.New(fill(5, 900)), 1) // never indexed
				s.SerialWriter().Finish(context.Background())
			},
			check: func(t *testing.T, s *container.Store, ix *cindex.Index, _ *fakeRecipes, st Stats) {
				if st.ContainersMerged != 1 || st.ChunksMoved != 0 || st.BytesReclaimed != 1800 || st.RefsPatched != 0 {
					t.Fatalf("zero-recipe compaction: %+v", st)
				}
				if loc, ok := ix.Peek(chunk.New(fill(4, 900)).FP); ok {
					t.Fatalf("the index still names %v, a copy in a dropped container", loc)
				}
				if s.NumContainers() != 0 {
					t.Fatalf("%d containers left", s.NumContainers())
				}
			}},
		{name: "all-dead store reclaims everything and moves nothing", threshold: 1,
			build: func(t *testing.T, s *container.Store, ix *cindex.Index, _ *fakeRecipes) {
				for i := 0; i < 4; i++ {
					mustWrite(t, s, chunk.New(fill(byte(i+1), 900)), 1) // never indexed
				}
				s.SerialWriter().Finish(context.Background())
			},
			check: func(t *testing.T, s *container.Store, _ *cindex.Index, _ *fakeRecipes, st Stats) {
				if st.ChunksMoved != 0 || st.BytesReclaimed != 4*900 || s.NumContainers() != 0 {
					t.Fatalf("all-dead store not fully reclaimed: %+v, %d containers left", st, s.NumContainers())
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			s, ix, clk := rig(t, true)
			rs := &fakeRecipes{}
			if row.build != nil {
				row.build(t, s, ix, rs)
			}
			p := passFor(t, s, ix, clk, rs, &plainGate{}, nil)
			st, err := p.Compact(context.Background(), row.threshold)
			if (err != nil) != row.wantErr {
				t.Fatalf("Compact(%v) error = %v, want error %v", row.threshold, err, row.wantErr)
			}
			if row.check != nil {
				row.check(t, s, ix, rs, st)
			}
		})
	}
}

// TestHeldContainerIsNoVictim: a container an ingest in flight holds is no
// merge victim however dead its copies are; released, it is.
func TestHeldContainerIsNoVictim(t *testing.T) {
	s, ix, clk := rig(t, true)
	fp, loc := put(t, s, ix, fill(1, 900), 1) // indexed, and no recipe references it
	s.SerialWriter().Finish(context.Background())
	pins := s.NewPins()
	pins.Hold([]chunk.Ref{{FP: fp, Size: 900, Loc: loc}})
	p := passFor(t, s, ix, clk, &fakeRecipes{}, &plainGate{}, nil)
	if st, err := p.Compact(context.Background(), 1); err != nil || st.ContainersMerged != 0 || !s.Sealed(loc.Container) {
		t.Fatalf("a held container was merged: %+v, %v", st, err)
	}
	pins.Release()
	if st, err := p.Compact(context.Background(), 1); err != nil || st.ContainersMerged != 1 || s.Sealed(loc.Container) {
		t.Fatalf("a released dead container survived: %+v, %v", st, err)
	}
}

func TestCompactRunsBatchesUntilCancelled(t *testing.T) {
	// Three half-dead containers, one victim per batch. Cancelling right
	// after the first drop commit stops Compact at the batch boundary with
	// that batch committed, the store fsck-clean and every chunk readable; a
	// second run finishes the job.
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}
	rec := &chunk.Recipe{Label: "gen0"}
	var want [][]byte
	for i := 0; i < 3; i++ {
		data := fill(byte(i+1), 900)
		fp, loc := put(t, s, ix, data, uint64(i+1))
		rec.Append(fp, 900, loc)
		want = append(want, data)
		mustWrite(t, s, chunk.New(fill(byte(0xA0+i), 900)), uint64(i+1)) // garbage
		s.SerialWriter().Finish(context.Background())
	}
	rs.add(rec)

	ctx, cancel := context.WithCancel(context.Background())
	p := passFor(t, s, ix, clk, rs, &plainGate{after: cancel}, func(c *Config) { c.MaxBatch = 1 })
	st, err := p.Compact(ctx, 0.9)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Compact returned %v", err)
	}
	if st.ContainersMerged != 1 || st.SimSeconds <= 0 {
		t.Fatalf("exactly the first batch must be committed and charged: %+v", st)
	}
	rep, err := fsck.Check(context.Background(), s, ix, rs.Snapshot(), true)
	if err != nil || !rep.OK() {
		t.Fatalf("store not fsck-clean after a cancelled Compact: %v %v", err, rep.Problems)
	}
	readBack(t, s, rs, "gen0", want...)

	p = passFor(t, s, ix, clk, rs, &plainGate{}, func(c *Config) { c.MaxBatch = 1 })
	st2, err := p.Compact(context.Background(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ContainersMerged != 2 {
		t.Fatalf("resumed Compact must take the two remaining victims in two batches: %+v", st2)
	}
	readBack(t, s, rs, "gen0", want...)
}

func TestCompactStopsWhenABatchDropsNothing(t *testing.T) {
	// Racing traffic re-pins a copy the scan called dead on every commit:
	// the victim survives each batch, and Compact must give up instead of
	// selecting it forever.
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}
	cX := chunk.New(fill(9, 1000))
	locX := mustWrite(t, s, cX, 1) // dead at scan time
	fpY, locY := put(t, s, ix, fill(7, 500), 1)
	s.SerialWriter().Finish(context.Background())
	gen := &chunk.Recipe{Label: "gen0"}
	gen.Append(fpY, 500, locY)
	rs.add(gen)

	commits := 0
	gate := &plainGate{before: func() {
		if commits++; commits == 1 {
			raced := &chunk.Recipe{Label: "raced"}
			raced.Append(cX.FP, 1000, locX)
			rs.add(raced)
		}
	}}
	p := passFor(t, s, ix, clk, rs, gate, nil)
	st, err := p.Compact(context.Background(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if commits != 1 || st.VictimsSkipped != 1 || st.ContainersMerged != 0 {
		t.Fatalf("Compact must stop after the batch that dropped nothing: %d commits, %+v", commits, st)
	}
	readBack(t, s, rs, "raced", fill(9, 1000))
	readBack(t, s, rs, "gen0", fill(7, 500))
}

func TestEpochCancellation(t *testing.T) {
	s, ix, clk := rig(t, true)
	rs := &fakeRecipes{}
	mustWrite(t, s, chunk.New(bytes.Repeat([]byte{9}, 1000)), 1)
	fpY, locY := put(t, s, ix, bytes.Repeat([]byte{7}, 500), 1)
	s.SerialWriter().Finish(context.Background())
	gen := &chunk.Recipe{Label: "gen0"}
	gen.Append(fpY, 500, locY)
	rs.add(gen)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := passFor(t, s, ix, clk, rs, &plainGate{}, nil)
	if _, err := p.RunEpoch(ctx); err == nil {
		t.Fatal("cancelled epoch must fail")
	}
	// Nothing was dropped; the store is intact.
	if !s.Sealed(locY.Container) {
		t.Fatal("cancelled epoch dropped a container")
	}
}

func TestThrottleUnlimitedAndCancel(t *testing.T) {
	th := NewThrottle(0)
	if err := th.Wait(context.Background(), 1<<30); err != nil {
		t.Fatal(err)
	}
	th = NewThrottle(10) // 10 B/s: the second wait would take ~10s
	if err := th.Wait(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := th.Wait(ctx, 100); err == nil {
		t.Fatal("throttled wait must respect cancellation")
	}
}

func TestSchedulerInterval(t *testing.T) {
	ran := make(chan struct{}, 8)
	sched := NewScheduler(5*time.Millisecond, func(ctx context.Context) (Stats, error) {
		select {
		case ran <- struct{}{}:
		default:
		}
		return Stats{}, nil
	})
	defer sched.Stop() // a second Stop: it is idempotent
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("interval scheduler never fired")
	}
	sched.Stop()
}
