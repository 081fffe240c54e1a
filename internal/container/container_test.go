package container

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/disk"
)

func newTestStore(t *testing.T, storeData bool, cfg Config) (*Store, *disk.Clock) {
	t.Helper()
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, storeData)
	s, err := NewStore(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, &clk
}

func smallConfig() Config { return Config{DataCap: 1024, MaxChunks: 8} }

func TestNewStoreRejectsBadConfig(t *testing.T) {
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, false)
	for _, cfg := range []Config{{}, {DataCap: 1}, {MaxChunks: 1}} {
		if _, err := NewStore(dev, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, _ := newTestStore(t, true, DefaultConfig())
	data := []byte("some chunk content")
	loc := mustWrite(s, chunk.New(data), 1)
	s.SerialWriter().Finish(context.Background())
	got, err := readChunk(context.Background(), s, loc)
	if err != nil {
		t.Fatalf("ReadChunk: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestZeroSizeChunkPanics(t *testing.T) {
	s, _ := newTestStore(t, false, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	mustWrite(s, chunk.Chunk{}, 0)
}

func TestAutoSealOnDataCap(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	// 1024-byte cap: three 400-byte chunks force a seal after two.
	for i := 0; i < 3; i++ {
		mustWrite(s, chunk.Meta(chunk.Of([]byte{byte(i)}), 400), 0)
	}
	if s.NumContainers() != 1 {
		t.Fatalf("NumContainers = %d, want 1 sealed", s.NumContainers())
	}
	s.SerialWriter().Finish(context.Background())
	if s.NumContainers() != 2 {
		t.Fatalf("after flush NumContainers = %d, want 2", s.NumContainers())
	}
}

func TestAutoSealOnMaxChunks(t *testing.T) {
	s, _ := newTestStore(t, false, Config{DataCap: 1 << 30, MaxChunks: 4})
	for i := 0; i < 9; i++ {
		mustWrite(s, chunk.Meta(chunk.Of([]byte{byte(i)}), 10), 0)
	}
	s.SerialWriter().Finish(context.Background())
	if s.NumContainers() != 3 {
		t.Fatalf("NumContainers = %d, want 3 (4+4+1 chunks)", s.NumContainers())
	}
}

func TestLocationsMatchFlushedLayout(t *testing.T) {
	s, _ := newTestStore(t, true, smallConfig())
	var locs []chunk.Location
	var datas [][]byte
	for i := 0; i < 20; i++ {
		d := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
		locs = append(locs, mustWrite(s, chunk.New(d), uint64(i)))
		datas = append(datas, d)
	}
	s.SerialWriter().Finish(context.Background())
	for i, loc := range locs {
		got, err := readChunk(context.Background(), s, loc)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("chunk %d: read %q, want %q", i, got, datas[i])
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	fp := chunk.Of([]byte("x"))
	loc := mustWrite(s, chunk.Meta(fp, 123), 77)
	s.SerialWriter().Finish(context.Background())
	entries := s.SerialWriter().ReadMeta(loc.Container)
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.FP != fp || e.Size != 123 || e.Segment != 77 || e.Offset != loc.Offset {
		t.Fatalf("meta entry %+v does not match location %v", e, loc)
	}
}

func TestReadMetaChargesDisk(t *testing.T) {
	s, clk := newTestStore(t, false, smallConfig())
	loc := mustWrite(s, chunk.Meta(chunk.Of([]byte("x")), 10), 0)
	s.SerialWriter().Finish(context.Background())
	before := clk.Now()
	s.SerialWriter().ReadMeta(loc.Container)
	if clk.Now() <= before {
		t.Fatal("ReadMeta must charge disk time")
	}
	before = clk.Now()
	s.PeekMeta(loc.Container)
	if clk.Now() != before {
		t.Fatal("PeekMeta must be free")
	}
}

func TestReadDataAndExtract(t *testing.T) {
	s, _ := newTestStore(t, true, smallConfig())
	d1, d2 := []byte("first-chunk"), []byte("second-chunk")
	l1 := mustWrite(s, chunk.New(d1), 0)
	l2 := mustWrite(s, chunk.New(d2), 0)
	s.SerialWriter().Finish(context.Background())
	data := mustReadDataRange(s, []uint32{l1.Container})[0]
	if int64(len(data)) != int64(len(d1)+len(d2)) {
		t.Fatalf("data section length = %d", len(data))
	}
	if !bytes.Equal(s.Extract(data, l1), d1) || !bytes.Equal(s.Extract(data, l2), d2) {
		t.Fatal("Extract mismatch")
	}
}

func TestExtractOutOfRangePanics(t *testing.T) {
	s, _ := newTestStore(t, true, smallConfig())
	l := mustWrite(s, chunk.New([]byte("abc")), 0)
	s.SerialWriter().Finish(context.Background())
	data := mustReadDataRange(s, []uint32{l.Container})[0]
	bad := l
	bad.Offset += 1000
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.Extract(data, bad)
}

func TestInfoUnsealedPanics(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s.SerialWriter().ReadMeta(0)
}

func TestSealed(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	if s.Sealed(0) {
		t.Fatal("nothing sealed yet")
	}
	mustWrite(s, chunk.Meta(chunk.Of([]byte("x")), 10), 0)
	if s.Sealed(0) {
		t.Fatal("open container is not sealed")
	}
	s.SerialWriter().Finish(context.Background())
	if !s.Sealed(0) {
		t.Fatal("container 0 should be sealed")
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	s, clk := newTestStore(t, false, smallConfig())
	s.SerialWriter().Finish(context.Background())
	s.SerialWriter().Finish(context.Background())
	if s.NumContainers() != 0 || clk.Now() != 0 {
		t.Fatal("empty flush must write nothing")
	}
}

func TestUtilizationAndMarkDead(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	mustWrite(s, chunk.Meta(chunk.Of([]byte("a")), 100), 0)
	mustWrite(s, chunk.Meta(chunk.Of([]byte("b")), 100), 0)
	s.SerialWriter().Finish(context.Background())
	if u := s.Utilization(); u != 1.0 {
		t.Fatalf("fresh utilization = %v", u)
	}
	s.MarkDead(0, 100)
	if u := s.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	s.MarkDead(0, 1000) // clamps at zero
	if u := s.Utilization(); u != 0 {
		t.Fatalf("utilization = %v, want 0", u)
	}
	if s.StoredBytes() != 200 {
		t.Fatalf("StoredBytes = %d", s.StoredBytes())
	}
}

func TestUtilizationEmptyStore(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	if s.Utilization() != 1 {
		t.Fatal("empty store utilization must be 1")
	}
}

func TestSequentialFlushIsMostlySeekFree(t *testing.T) {
	s, _ := newTestStore(t, false, DefaultConfig())
	for i := 0; i < 5000; i++ {
		mustWrite(s, chunk.Meta(chunk.Of([]byte{byte(i), byte(i >> 8)}), 8192), 0)
	}
	s.SerialWriter().Finish(context.Background())
	if seeks := s.Device().Stats().Seeks; seeks > 1 {
		t.Fatalf("pure sequential ingest should need 1 seek, got %d", seeks)
	}
}

// Property: for any sequence of chunk sizes, every returned location is
// within its container's data section, locations never overlap, and offsets
// are strictly increasing.
func TestLocationDisjointnessProperty(t *testing.T) {
	cfg := Config{DataCap: 4096, MaxChunks: 16}
	s, _ := newTestStore(t, false, cfg)
	var lastEnd int64 = -1
	i := 0
	fn := func(szRaw uint16) bool {
		sz := uint32(szRaw%2000) + 1
		i++
		loc := mustWrite(s, chunk.Meta(chunk.Of([]byte(fmt.Sprint(i))), sz), uint64(i))
		if loc.Offset <= lastEnd-1 {
			return false
		}
		lastEnd = loc.Offset + int64(loc.Size)
		return loc.Size == sz
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	s.SerialWriter().Finish(context.Background())
	// All sealed entries round-trip through shadow metadata.
	total := 0
	for id := 0; id < s.NumContainers(); id++ {
		for _, e := range s.PeekMeta(uint32(id)) {
			total++
			if e.Size == 0 {
				t.Fatal("zero size entry")
			}
		}
	}
	if total != i {
		t.Fatalf("entries %d != writes %d", total, i)
	}
}

// Property: with a data-storing device, arbitrary chunk contents round-trip
// bit-exactly through seal + ReadData/Extract.
func TestDataIntegrityProperty(t *testing.T) {
	s, _ := newTestStore(t, true, Config{DataCap: 8192, MaxChunks: 32})
	type written struct {
		loc  chunk.Location
		data []byte
	}
	var all []written
	fn := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 4000 {
			data = data[:4000]
		}
		cp := append([]byte(nil), data...)
		all = append(all, written{mustWrite(s, chunk.New(cp), 0), cp})
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	s.SerialWriter().Finish(context.Background())
	for k, w := range all {
		got, err := readChunk(context.Background(), s, w.loc)
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
		if !bytes.Equal(got, w.data) {
			t.Fatalf("chunk %d mismatch", k)
		}
	}
}

// fillContainers seals n containers of two chunks each and returns their ids.
func fillContainers(t *testing.T, s *Store, n int) []uint32 {
	t.Helper()
	seen := map[uint32]bool{}
	var ids []uint32
	for i := 0; len(ids) < n; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 400)
		loc := mustWrite(s, chunk.New(data), uint64(i))
		if !seen[loc.Container] {
			seen[loc.Container] = true
			ids = append(ids, loc.Container)
		}
	}
	s.SerialWriter().Finish(context.Background())
	return ids[:n]
}

// TestSerialWriterBesideAReservation: a reservation that lands behind the
// serial writer's open container leaves that container its whole extent at
// seal (the seal used to panic on the moved frontier), and a container given
// up while its extent is still the last gives the extent back.
func TestSerialWriterBesideAReservation(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	ctx := context.Background()
	extent := s.cfg.MetaCap() + s.cfg.DataCap
	c := chunk.Meta(chunk.Of([]byte{1}), 100)
	serial := mustWrite(s, c, 1)
	lane := s.NewWriter(nil)
	if _, err := lane.Write(ctx, chunk.Meta(chunk.Of([]byte{2}), 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SerialWriter().Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lane.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if info := s.info(serial.Container); info.Start != 0 || info.End != extent || s.dev.Size() != 2*extent {
		t.Fatalf("serial container [%d,%d) on a %d-byte device, want [0,%d) of %d", info.Start, info.End, s.dev.Size(), extent, 2*extent)
	}

	// Discarded while last: the frontier goes back to where it opened.
	w := s.NewWriter(nil)
	if _, err := w.Write(ctx, c, 2); err != nil {
		t.Fatal(err)
	}
	w.Discard()
	if s.dev.Size() != 2*extent || s.Sealed(w.id) {
		t.Fatalf("a discarded container left the frontier at %d, want %d", s.dev.Size(), 2*extent)
	}
}

func TestAdjacentFrontierContainers(t *testing.T) {
	s, _ := newTestStore(t, false, smallConfig())
	ids := fillContainers(t, s, 3)
	// The serial writer's packed containers are separated only by the next
	// container's metadata section — far cheaper to stream over than a seek.
	if !s.Adjacent(ids[0], ids[1]) || !s.Adjacent(ids[1], ids[2]) {
		t.Fatal("consecutive frontier containers must be adjacent")
	}
	if s.Adjacent(ids[1], ids[0]) {
		t.Fatal("adjacency is forward-only")
	}
	// Under the default model even a whole skipped small container streams
	// over more cheaply than a 4 ms seek — the predicate is cost-based, not
	// ID-based.
	if !s.Adjacent(ids[0], ids[2]) {
		t.Fatal("a ~1.5 KB gap must beat a 4 ms seek under the default model")
	}
}

// adjacencyStore builds a store whose model makes the adjacency predicate
// bite: the break-even gap (Seek × ReadBW = 800 bytes) admits the ~350-byte
// metadata section between consecutive containers but rejects spans that
// skip a whole container.
func adjacencyStore(t *testing.T) *Store {
	t.Helper()
	var clk disk.Clock
	m := disk.Model{Seek: 8 * time.Microsecond, ReadBW: 100e6, WriteBW: 100e6}
	s, err := NewStore(disk.NewDevice(m, &clk, false), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAdjacentRejectsUneconomicGap(t *testing.T) {
	s := adjacencyStore(t)
	ids := fillContainers(t, s, 3)
	if !s.Adjacent(ids[0], ids[1]) {
		t.Fatal("metadata-sized gap must still be adjacent")
	}
	if s.Adjacent(ids[0], ids[2]) {
		t.Fatal("a gap costing more than one seek must not be adjacent")
	}
}

func TestRangeSpanAndReadDataRange(t *testing.T) {
	s, _ := newTestStore(t, true, smallConfig())
	ids := fillContainers(t, s, 3)
	pair := ids[:2]

	before := s.Device().Stats()
	got := mustReadDataRange(s, pair)
	after := s.Device().Stats()
	if after.Reads != before.Reads+1 || after.Seeks > before.Seeks+1 {
		t.Fatalf("coalesced read must be one device access: %v -> %v", before, after)
	}
	// The span runs from the first data section's start to the last one's end.
	if span := s.DataStart(pair[1]) + s.DataFill(pair[1]) - s.DataStart(pair[0]); after.BytesRead-before.BytesRead != span {
		t.Fatalf("charged %d bytes, want the span %d", after.BytesRead-before.BytesRead, span)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 data sections, got %d", len(got))
	}
	for i, id := range pair {
		if !bytes.Equal(got[i], mustPeekData(s, id)) {
			t.Fatalf("container %d data section differs via ranged read", id)
		}
	}
}

// TestReadDataRangeSingleDelegates: one id charges exactly its own data
// section, one access, as a whole-section read always did.
func TestReadDataRangeSingleDelegates(t *testing.T) {
	s1, clk1 := newTestStore(t, true, smallConfig())
	s2, clk2 := newTestStore(t, true, smallConfig())
	ids1 := fillContainers(t, s1, 2)
	ids2 := fillContainers(t, s2, 2)

	before := s1.Device().Stats()
	s1.Device().AccountRead(s1.DataStart(ids1[0]), s1.DataFill(ids1[0]))
	a := mustPeekData(s1, ids1[0])
	b := mustReadDataRange(s2, []uint32{ids2[0]})[0]
	if !bytes.Equal(a, b) {
		t.Fatal("single-id ranged read must equal the data section")
	}
	if clk1.Now() != clk2.Now() {
		t.Fatalf("single-id ranged read must charge identically: %v vs %v", clk1.Now(), clk2.Now())
	}
	if s1.Device().Stats() != s2.Device().Stats() {
		t.Fatal("single-id ranged read must account identically")
	}
	if after := s1.Device().Stats(); after.Reads != before.Reads+1 {
		t.Fatalf("one section must be one access: %v -> %v", before, after)
	}
}

func TestAccountAndPeekDataRangeMatchReadDataRange(t *testing.T) {
	s1, clk1 := newTestStore(t, true, smallConfig())
	s2, clk2 := newTestStore(t, true, smallConfig())
	ids1 := fillContainers(t, s1, 3)
	ids2 := fillContainers(t, s2, 3)

	datas := mustReadDataRange(s1, ids1)
	s2.AccountDataRange(ids2, nil)
	fetched, err := s2.Fetch(context.Background(), ids2)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if clk1.Now() != clk2.Now() {
		t.Fatalf("Account+Fetch must charge like ReadDataRange: %v vs %v", clk1.Now(), clk2.Now())
	}
	for i := range datas {
		if !bytes.Equal(datas[i], fetched[i]) {
			t.Fatalf("container %d bytes differ between read and fetch paths", ids1[i])
		}
	}
}

// tearOne hands up every section the backend below returns, and remembers
// it, but cuts the one of container tear to half its length: a torn write
// surfacing.
type tearOne struct {
	blockstore.Backend
	tear uint32
	seen [][]byte
}

func (b *tearOne) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	out, err := b.Backend.ReadDataRange(ctx, ids)
	b.seen = append(b.seen, out...)
	for i, id := range ids {
		if err == nil && id == b.tear {
			out[i] = out[i][:len(out[i])/2]
		}
	}
	return out, err
}

// TestFetchReleasesWhatItRefuses: off a file backend Fetch hands up mapped
// sections, each the caller's until it releases it; an extent one of whose
// sections is torn is ErrCorrupt, and every section of it is released —
// the intact one too. ReadDataRange hands up copies and keeps no mapping.
func TestFetchReleasesWhatItRefuses(t *testing.T) {
	file, err := blockstore.OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	be := &tearOne{Backend: file, tear: 99}
	var clk disk.Clock
	s, err := NewStoreWithBackend(disk.NewDevice(disk.DefaultModel(), &clk, true), Config{DataCap: 64, MaxChunks: 4}, be)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		mustWrite(s, chunk.New([]byte(fmt.Sprintf("chunk-%02d-padding-to-force-seal-00", i))), 0)
	}
	if err := s.SerialWriter().Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.Adjacent(0, 1) {
		t.Fatal("the two containers are not adjacent")
	}
	whole, err := s.Fetch(context.Background(), []uint32{0, 1})
	if err != nil || !blockstore.Mapped(whole[0]) || !blockstore.Mapped(whole[1]) {
		t.Fatalf("file-backend sections are not mappings (%v)", err)
	}
	for _, data := range whole {
		blockstore.Release(data)
		if blockstore.Mapped(data) {
			t.Fatal("a released section is still mapped")
		}
	}

	be.tear, be.seen = 1, nil
	if _, err := s.Fetch(context.Background(), []uint32{0, 1}); !errors.Is(err, blockstore.ErrCorrupt) || !strings.Contains(err.Error(), "container 1 torn") {
		t.Fatalf("an extent with a torn section: %v, want ErrCorrupt naming container 1", err)
	}
	if len(be.seen) != 2 || blockstore.Mapped(be.seen[0]) || blockstore.Mapped(be.seen[1]) {
		t.Fatalf("a refused extent of %d sections left a mapping behind", len(be.seen))
	}
	be.tear, be.seen = 99, nil
	copies, err := s.ReadDataRange(context.Background(), []uint32{0})
	if err != nil || blockstore.Mapped(copies[0]) || len(be.seen) != 1 || blockstore.Mapped(be.seen[0]) {
		t.Fatalf("ReadDataRange kept a mapping or handed one up (%v)", err)
	}
}

func TestRangeSpanRejectsNonAdjacent(t *testing.T) {
	s := adjacencyStore(t)
	ids := fillContainers(t, s, 3)
	for name, read := range map[string]func([]uint32){
		"AccountDataRange": func(ids []uint32) { s.AccountDataRange(ids, nil) },
		"Fetch":            func(ids []uint32) { s.Fetch(context.Background(), ids) }, //nolint:errcheck // must panic
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: non-adjacent range must panic", name)
				}
			}()
			read([]uint32{ids[0], ids[2]})
		}()
	}
}

// mustWrite appends c through the store frontier; the in-memory backends
// used by these tests cannot fail, so any error is a test bug.
func mustWrite(s *Store, c chunk.Chunk, seg uint64) chunk.Location {
	loc, err := s.SerialWriter().Write(context.Background(), c, seg)
	if err != nil {
		panic(err)
	}
	return loc
}

// mustPeekData and mustReadDataRange mirror mustWrite: the
// in-memory backends cannot fail, so errors are test bugs.
func mustPeekData(s *Store, id uint32) []byte {
	datas, err := s.Fetch(context.Background(), []uint32{id})
	if err != nil {
		panic(err)
	}
	return datas[0]
}

func mustReadDataRange(s *Store, ids []uint32) [][]byte {
	datas, err := s.ReadDataRange(context.Background(), ids)
	if err != nil {
		panic(err)
	}
	return datas
}

// readChunk reads loc's container with a charged one-section read and copies
// the chunk out of it.
func readChunk(ctx context.Context, s *Store, loc chunk.Location) ([]byte, error) {
	datas, err := s.ReadDataRange(ctx, []uint32{loc.Container})
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), s.Extract(datas[0], loc)...), nil
}
