package restore

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/disk"
)

// rig builds a store of 4 KiB containers with storeData and returns it.
func rig(t *testing.T, storeData bool) *container.Store {
	t.Helper()
	return rigCap(t, storeData, 4096)
}

// rigCap is rig with containers of dataCap bytes: the unit PolicyFAA's
// window is counted in. A chunk larger than dataCap gets a container of its
// own, so a small dataCap also makes oversized chunks.
func rigCap(t *testing.T, storeData bool, dataCap int64) *container.Store {
	t.Helper()
	var clk disk.Clock
	s, err := container.NewStore(disk.NewDevice(disk.DefaultModel(), &clk, storeData),
		container.Config{DataCap: dataCap, MaxChunks: 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ingest writes each data slice as a chunk and returns the recipe.
func ingest(t *testing.T, s *container.Store, label string, datas [][]byte) *chunk.Recipe {
	t.Helper()
	rec := &chunk.Recipe{Label: label}
	for i, d := range datas {
		loc := mustWrite(s, chunk.New(d), uint64(i))
		rec.Append(chunk.Of(d), uint32(len(d)), loc)
	}
	s.SerialWriter().Finish(context.Background())
	return rec
}

func mkDatas(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		d := make([]byte, size)
		for j := range d {
			d[j] = byte(i*31 + j)
		}
		out[i] = d
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	s := rig(t, true)
	datas := mkDatas(20, 300)
	rec := ingest(t, s, "rt", datas)
	var want bytes.Buffer
	for _, d := range datas {
		want.Write(d)
	}
	cfg := DefaultConfig()
	cfg.Verify = true
	if err := VerifyAgainst(context.Background(), s, rec, cfg, want.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestStatsFields(t *testing.T) {
	s := rig(t, true)
	datas := mkDatas(20, 300)
	rec := ingest(t, s, "st", datas)
	st, err := RunPipelined(context.Background(), s, rec, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != 20 || st.Bytes != 20*300 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ContainerReads == 0 || st.Duration <= 0 {
		t.Fatalf("no reads or time recorded: %+v", st)
	}
	if st.Fragments != rec.Fragments() {
		t.Fatal("fragments mismatch")
	}
	if st.ThroughputMBps() <= 0 {
		t.Fatal("throughput must be positive")
	}
	if st.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSequentialRecipeReadsEachContainerOnce(t *testing.T) {
	s := rig(t, false)
	datas := mkDatas(40, 300) // ~13 chunks per 4KB container
	rec := ingest(t, s, "seq", datas)
	st, err := RunPipelined(context.Background(), s, rec, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainerReads != int64(s.NumContainers()) {
		t.Fatalf("sequential restore read %d containers, want %d", st.ContainerReads, s.NumContainers())
	}
	if st.CacheHits != st.Chunks-st.ContainerReads {
		t.Fatalf("cache hits %d inconsistent", st.CacheHits)
	}
}

func TestFragmentedRecipeThrashesCache(t *testing.T) {
	s := rig(t, false)
	datas := mkDatas(60, 300)
	seq := ingest(t, s, "base", datas)
	// Interleave refs from distant containers: 0, n/2, 1, n/2+1, ...
	frag := &chunk.Recipe{Label: "frag"}
	n := len(seq.Refs)
	for i := 0; i < n/2; i++ {
		frag.Refs = append(frag.Refs, seq.Refs[i], seq.Refs[n/2+i])
	}
	cfg := PipelineConfig{CacheContainers: 1}
	stSeq, _ := RunPipelined(context.Background(), s, seq, cfg, nil)
	stFrag, _ := RunPipelined(context.Background(), s, frag, cfg, nil)
	if stFrag.ContainerReads <= stSeq.ContainerReads {
		t.Fatalf("interleaved recipe should thrash: %d <= %d reads",
			stFrag.ContainerReads, stSeq.ContainerReads)
	}
	if stFrag.ThroughputMBps() >= stSeq.ThroughputMBps() {
		t.Fatal("fragmented restore should be slower")
	}
}

func TestVerifyRequiresDataDevice(t *testing.T) {
	s := rig(t, false)
	rec := ingest(t, s, "v", mkDatas(2, 100))
	cfg := DefaultConfig()
	cfg.Verify = true
	if _, err := RunPipelined(context.Background(), s, rec, cfg, nil); err == nil {
		t.Fatal("Verify on hole device must error")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	s := rig(t, true)
	rec := ingest(t, s, "c", mkDatas(3, 100))
	// Corrupt the recipe: point a ref at the wrong fingerprint.
	rec.Refs[1].FP = chunk.Of([]byte("not the real content"))
	cfg := DefaultConfig()
	cfg.Verify = true
	if _, err := RunPipelined(context.Background(), s, rec, cfg, nil); err == nil {
		t.Fatal("fingerprint mismatch must be detected")
	}
}

func TestUnsealedContainerRejected(t *testing.T) {
	s := rig(t, false)
	rec := &chunk.Recipe{Label: "u"}
	loc := mustWrite(s, chunk.New([]byte("pending")), 0)
	rec.Append(chunk.Of([]byte("pending")), 7, loc)
	// No flush: container 0 unsealed.
	if _, err := RunPipelined(context.Background(), s, rec, DefaultConfig(), nil); err == nil {
		t.Fatal("unsealed container must be rejected")
	}
}

func TestEmptyRecipe(t *testing.T) {
	s := rig(t, false)
	st, err := RunPipelined(context.Background(), s, &chunk.Recipe{Label: "empty"}, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != 0 || st.Chunks != 0 || st.ContainerReads != 0 {
		t.Fatalf("empty restore stats = %+v", st)
	}
}

func TestCacheCapacityClamp(t *testing.T) {
	s := rig(t, false)
	rec := ingest(t, s, "cl", mkDatas(5, 100))
	if _, err := RunPipelined(context.Background(), s, rec, PipelineConfig{CacheContainers: 0}, nil); err != nil {
		t.Fatalf("zero cache config should clamp, got %v", err)
	}
}

func TestWriterReceivesStream(t *testing.T) {
	s := rig(t, true)
	datas := mkDatas(10, 123)
	rec := ingest(t, s, "w", datas)
	var buf bytes.Buffer
	if _, err := RunPipelined(context.Background(), s, rec, DefaultConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, d := range datas {
		want.Write(d)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("writer output differs")
	}
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
