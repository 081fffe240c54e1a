package restore

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/workload"
)

// benchStore builds a sealed store holding nChunks chunks of size bytes
// (chunksPerContainer per container) and the sequential recipe over them.
func benchStore(b testing.TB, nChunks, size, chunksPerContainer int) (*container.Store, *chunk.Recipe) {
	var clk disk.Clock
	s, err := container.NewStore(disk.NewDevice(disk.DefaultModel(), &clk, true),
		container.Config{DataCap: int64(chunksPerContainer * size), MaxChunks: chunksPerContainer})
	if err != nil {
		b.Fatal(err)
	}
	rec := &chunk.Recipe{Label: "bench"}
	for i := 0; i < nChunks; i++ {
		d := make([]byte, size)
		for j := range d {
			d[j] = byte(i*131 + j*7)
		}
		loc := mustWrite(s, chunk.New(d), uint64(i))
		rec.Append(chunk.Of(d), uint32(len(d)), loc)
	}
	if err := s.SerialWriter().Finish(context.Background()); err != nil {
		b.Fatal(err)
	}
	return s, rec
}

// BenchmarkDecode measures the decode/verify pool in isolation: stream-order
// chunk views pushed through push/finishDecode, SHA-256 verified by N
// workers, emitted in order and discarded. Bytes/op is the verified payload.
func BenchmarkDecode(b *testing.B) {
	const nChunks, size = 4096, 1024
	jobs := make([]decodeJob, nChunks)
	for i := range jobs {
		d := make([]byte, size)
		for j := range d {
			d[j] = byte(i + j)
		}
		jobs[i] = decodeJob{idx: i, fp: chunk.Of(d), size: uint32(size), data: d}
	}
	refs := make([]chunk.Ref, nChunks)
	for i, j := range jobs {
		refs[i] = chunk.Ref{FP: j.fp, Size: j.size}
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(nChunks * size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Nothing retires: no section set.
				as := &assembly{cfg: PipelineConfig{Verify: true}, Emission: Emission{Sink: func(int, []byte) error { return nil }}, stats: &Stats{}}
				as.startDecode(workers)
				for k := range jobs {
					if !as.push(k, &refs[k], jobs[k].data, nil) {
						b.Fatal("pool failed early")
					}
				}
				if err := as.finishDecode(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestorePipeline measures the full restore path end to end —
// plan, coalesced fetch, decode pool, in-order write — at several decode
// worker counts (GOMAXPROCS; auto is the host's), under the OPT cache and
// under forward assembly. Simulated stats are identical across the decode
// counts of one policy (TestDecodeWorkersDeterminism); only wall time moves.
func BenchmarkRestorePipeline(b *testing.B) {
	s, rec := benchStore(b, 2048, 1024, 256)
	type shape struct {
		policy CachePolicy
		dw     int
	}
	for _, sh := range []shape{{PolicyOPT, 1}, {PolicyOPT, 2}, {PolicyOPT, 0}, {PolicyFAA, 1}, {PolicyFAA, 0}} {
		name := fmt.Sprintf("%v/decode=%d", sh.policy, sh.dw)
		if sh.dw == 0 {
			name = fmt.Sprintf("%v/decode=auto", sh.policy)
		}
		b.Run(name, func(b *testing.B) {
			if sh.dw > 0 {
				setProcs(b, sh.dw)
			}
			cfg := PipelineConfig{CacheContainers: 8, Policy: sh.policy, Coalesce: true, Verify: true}
			b.SetBytes(rec.Bytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunPipelined(context.Background(), s, rec, cfg, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRestoreAllocsPerChunk is the zero-copy guard: on the whole-container
// hot path (sequential recipe, verify on) a restore must stay under 0.5
// heap allocations per chunk — chunk payloads are views into the fetched
// container sections, never per-chunk copies.
func TestRestoreAllocsPerChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	const nChunks = 2048
	s, rec := benchStore(t, nChunks, 512, 256)
	cfg := PipelineConfig{CacheContainers: 8, Policy: PolicyOPT, Coalesce: true, Verify: true}
	for _, tc := range []struct {
		name  string
		procs int
	}{
		{"serial", 1},
		{"decode-pool", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setProcs(t, tc.procs)
			run := func() {
				if _, err := RunPipelined(context.Background(), s, rec, cfg, io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm internal pools once before counting
			perRun := testing.AllocsPerRun(10, run)
			if perChunk := perRun / nChunks; perChunk >= 0.5 {
				t.Fatalf("%.0f allocs/run = %.3f allocs/chunk, want < 0.5 (zero-copy hot path regressed)",
					perRun, perChunk)
			}
		})
	}
}

// TestRestoreAllocBytesPerByte guards the other half of zero-copy: a restore
// off the sim backend reads sealed sections in place, so the bytes it
// allocates (plan, cache maps, decode batches) stay a small fraction of the
// bytes it restores. One private copy of each fetched section would alone
// put the ratio at 1.
func TestRestoreAllocBytesPerByte(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	s, rec := benchStore(t, 2048, 8192, 256)
	for _, dw := range []int{1, 4} {
		t.Run(fmt.Sprintf("decode=%d", dw), func(t *testing.T) {
			setProcs(t, dw)
			cfg := PipelineConfig{CacheContainers: 8, Policy: PolicyLRU, Verify: true}
			run := func() {
				if _, err := RunPipelined(context.Background(), s, rec, cfg, io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			run()
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*rec.Bytes())
			if perByte > 0.05 {
				t.Fatalf("%.3f bytes allocated per restored byte, want <= 0.05 (a fetched section is being copied)", perByte)
			}
		})
	}
}

// defragGenerations backs up gens generations of one user's workload to a
// DeFrag engine on the file backend, on a mapSpy, and returns the store, the
// newest recipe and the spy.
func defragGenerations(t *testing.T, gens int) (*container.Store, *chunk.Recipe, *mapSpy) {
	t.Helper()
	maps := newMapSpy()
	file, err := blockstore.OpenFileOn(maps, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	cfg := core.DefaultConfig(256 << 20)
	cfg.StoreData, cfg.Backend = true, file
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(29)
	wcfg.NumFiles = 32
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var newest *chunk.Recipe
	for g := 0; g < gens; g++ {
		b := sched.Next()
		if newest, _, err = e.Backup(context.Background(), b.Label, b.Stream); err != nil {
			t.Fatal(err)
		}
	}
	return e.Containers(), newest, maps
}

// TestFirstFullHoldsThreeSections restores the first full backup of a fresh
// store — every chunk unique, each container read once, front to back — the
// default way (OPT-8), inline and through the decode pool. A section is
// released right after its last chunk is written, so inline at most three
// are mapped at once: the section being assembled, the one the fetcher reads
// behind it and, where the first chunks of one container come before the
// last of the one before, that one too — not the ten an eight-container cache
// would hold if sections stayed until it evicted them. The decode pool adds
// at most one section for each batch it holds unwritten (4 per worker queued
// and 2 more): the fetcher does not wait for a retired section's release.
func TestFirstFullHoldsThreeSections(t *testing.T) {
	s, first, maps := defragGenerations(t, 1)
	for _, dw := range []int{1, 2} {
		setProcs(t, dw)
		maps.mu.Lock()
		maps.peak = 0
		maps.mu.Unlock()
		st, err := RunPipelined(context.Background(), s, first, PipelineConfig{CacheContainers: 8, Policy: PolicyOPT}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if st.ContainerReads < 9 {
			t.Fatalf("decode %d: only %d fetches: the backup does not fill the cache", dw, st.ContainerReads)
		}
		live, peak, _ := maps.counts()
		t.Logf("decode %d: %d fetches, at most %d sections mapped at once", dw, st.ContainerReads, peak)
		limit := 3
		if dw > 1 {
			limit += 4*dw + 2
		}
		if peak > limit || live != 0 {
			t.Fatalf("decode %d: %d sections mapped at once (limit %d), %d still mapped after the restore", dw, peak, limit, live)
		}
	}
}
