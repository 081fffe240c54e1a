package restore

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chunk"
)

// faa is PolicyFAA with a window of containers × the rig's DataCap bytes,
// read by one lane.
func faa(containers int, verify bool) PipelineConfig {
	return PipelineConfig{CacheContainers: containers, Policy: PolicyFAA, Verify: verify}
}

func TestFAARoundTrip(t *testing.T) {
	s := rigCap(t, true, 1500)
	datas := mkDatas(20, 300)
	rec := ingest(t, s, "faa", datas)
	var want bytes.Buffer
	for _, d := range datas {
		want.Write(d)
	}
	var got bytes.Buffer
	st, err := RunPipelined(context.Background(), s, rec, faa(1, true), &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("FAA restore differs from original")
	}
	if st.Chunks != 20 || st.Bytes != 20*300 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFAAReadsEachContainerOncePerWindow(t *testing.T) {
	s := rig(t, false)
	datas := mkDatas(60, 300)
	frag := interleave(ingest(t, s, "base", datas), "frag")
	// A window covering the whole recipe: each container read exactly once
	// despite the pathological interleave.
	st, err := RunPipelined(context.Background(), s, frag, faa(8, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if frag.Bytes() > 8*4096 {
		t.Fatalf("the %d-byte recipe does not fit one window", frag.Bytes())
	}
	if st.ContainerReads != int64(s.NumContainers()) {
		t.Fatalf("whole-recipe window read %d containers, want %d", st.ContainerReads, s.NumContainers())
	}
	// The LRU cache with capacity 1 thrashes on the same recipe.
	lru, err := RunPipelined(context.Background(), s, frag, PipelineConfig{CacheContainers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lru.ContainerReads <= st.ContainerReads {
		t.Fatalf("interleaved recipe: FAA %d reads should beat LRU-1 %d", st.ContainerReads, lru.ContainerReads)
	}
}

func TestFAASmallWindowDegrades(t *testing.T) {
	s := rig(t, false)
	datas := mkDatas(60, 300)
	frag := interleave(ingest(t, s, "base2", datas), "frag2")
	big, _ := RunPipelined(context.Background(), s, frag, faa(8, false), nil)
	small, _ := RunPipelined(context.Background(), s, frag, faa(1, false), nil)
	if small.ContainerReads <= big.ContainerReads {
		t.Fatalf("smaller area should re-read containers: %d <= %d", small.ContainerReads, big.ContainerReads)
	}
}

func TestFAAVerifyRequiresDataDevice(t *testing.T) {
	s := rig(t, false)
	rec := ingest(t, s, "v", mkDatas(2, 100))
	if _, err := RunPipelined(context.Background(), s, rec, faa(8, true), nil); err == nil {
		t.Fatal("Verify on hole device must error")
	}
}

func TestFAAUnsealedRejected(t *testing.T) {
	s := rig(t, false)
	rec := &chunk.Recipe{Label: "u"}
	loc := mustWrite(s, chunk.New([]byte("pending")), 0)
	rec.Append(chunk.Of([]byte("pending")), 7, loc)
	if _, err := RunPipelined(context.Background(), s, rec, faa(8, false), nil); err == nil {
		t.Fatal("unsealed container must be rejected")
	}
}

func TestFAAEmptyRecipeAndClamp(t *testing.T) {
	s := rig(t, false)
	st, err := RunPipelined(context.Background(), s, &chunk.Recipe{Label: "e"}, faa(0, false), nil)
	if err != nil || st.Chunks != 0 {
		t.Fatalf("empty FAA restore: %v %+v", err, st)
	}
	// A window of no containers clamps to one: the restore completes, window
	// by window.
	rec := ingest(t, s, "cl", mkDatas(40, 300))
	st, err = RunPipelined(context.Background(), s, rec, faa(0, false), nil)
	if err != nil || st.Chunks != 40 || st.ContainerReads != int64(s.NumContainers()) {
		t.Fatalf("clamped FAA restore: %v %+v", err, st)
	}
}

func TestFAAOversizedChunkMidStream(t *testing.T) {
	// An oversized chunk at a window boundary in the middle of the stream:
	// the window admitting it holds exactly that one chunk, and the stream
	// must still reassemble bit-exactly around it.
	s := rigCap(t, true, 500)
	datas := [][]byte{
		mkDatas(1, 400)[0],
		bytes.Repeat([]byte{7}, 2000), // larger than the 500-byte window below
		mkDatas(1, 400)[0],
		bytes.Repeat([]byte{8}, 2500), // a second oversized chunk
		mkDatas(1, 400)[0],
	}
	rec := ingest(t, s, "mid", datas)
	var want bytes.Buffer
	for _, d := range datas {
		want.Write(d)
	}
	var out bytes.Buffer
	st, err := RunPipelined(context.Background(), s, rec, faa(1, true), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatal("mid-stream oversized chunks corrupted the stream")
	}
	if st.Chunks != int64(len(datas)) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFAAOversizedChunkStillRestores(t *testing.T) {
	s := rigCap(t, true, 100)
	data := bytes.Repeat([]byte{9}, 2000)
	rec := ingest(t, s, "big", [][]byte{data})
	var out bytes.Buffer
	// Window smaller than the chunk: it must still admit one chunk.
	if _, err := RunPipelined(context.Background(), s, rec, faa(1, true), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("oversized chunk corrupted")
	}
}
