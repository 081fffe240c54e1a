package restore

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/container"
)

// interleave builds the pathological fragmented recipe used throughout the
// restore tests: refs alternating between the two halves of seq.
func interleave(seq *chunk.Recipe, label string) *chunk.Recipe {
	frag := &chunk.Recipe{Label: label}
	n := len(seq.Refs)
	for i := 0; i < n/2; i++ {
		frag.Refs = append(frag.Refs, seq.Refs[i], seq.Refs[n/2+i])
	}
	return frag
}

// wantBytes concatenates the original chunk contents in recipe order.
func wantBytes(datas [][]byte, rec *chunk.Recipe, seq *chunk.Recipe) []byte {
	index := make(map[chunk.Fingerprint][]byte, len(datas))
	for i, d := range datas {
		index[seq.Refs[i].FP] = d
	}
	var out bytes.Buffer
	for i := range rec.Refs {
		out.Write(index[rec.Refs[i].FP])
	}
	return out.Bytes()
}

// fullShape is the read-optimized configuration mode=pipelined selects: an
// 8-container OPT cache and coalesced extents.
func fullShape() PipelineConfig {
	return PipelineConfig{CacheContainers: 8, Policy: PolicyOPT, Coalesce: true}
}

// setProcs runs the rest of the test at GOMAXPROCS n, which sizes the decode
// pool: inline at 1, n workers above it. The fetcher and the decode pool are
// scheduled differently at 1, 2 and 4 Ps; nothing the simulated clock or the
// counters see may depend on that. Never under t.Parallel.
func setProcs(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSerialPipelinedMatchesRun is the tier-1 guard required by the PR: the
// pipelined engine with the LRU policy and no coalescing must produce
// byte-for-byte identical Stats — and identical device-level seek,
// read, and byte counters — to the reference Run on an identical store,
// although its extents are fetched ahead of use by another goroutine.
func TestSerialPipelinedMatchesRun(t *testing.T) {
	type shape struct{ cache, procs int }
	var shapes []shape
	for _, cache := range []int{1, 4, 8} {
		for _, procs := range []int{1, 2, 4} {
			shapes = append(shapes, shape{cache, procs})
		}
	}
	for _, tc := range shapes {
		t.Run(fmt.Sprintf("cache%d-procs%d", tc.cache, tc.procs), func(t *testing.T) {
			setProcs(t, tc.procs)
			// Two independent stores ingesting the same stream produce an
			// identical on-disk layout; restore each through one path.
			s1 := rig(t, true)
			s2 := rig(t, true)
			datas := mkDatas(60, 300)
			seq1 := ingest(t, s1, "base", datas)
			seq2 := ingest(t, s2, "base", datas)
			frag1 := interleave(seq1, "frag")
			frag2 := interleave(seq2, "frag")

			var out1, out2 bytes.Buffer
			legacy, err := Run(context.Background(), s1, frag1, Config{CacheContainers: tc.cache, Verify: true}, &out1)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := RunPipelined(context.Background(), s2, frag2,
				PipelineConfig{CacheContainers: tc.cache, Policy: PolicyLRU, Verify: true}, &out2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(legacy, pipe) {
				t.Fatalf("stats diverge:\nlegacy    %+v\npipelined %+v", legacy, pipe)
			}
			if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
				t.Fatal("restored streams differ")
			}
			if s1.Device().Stats() != s2.Device().Stats() {
				t.Fatalf("device stats diverge:\nlegacy    %v\npipelined %v",
					s1.Device().Stats(), s2.Device().Stats())
			}
		})
	}
}

// TestFAAPlanMatchesReference is the FAA twin of the test above: PolicyFAA at
// one lane, uncoalesced, must return the Stats (== , Duration included), the
// device-level seek, read and byte counters and the bytes of the reference
// RunFAA on an identical store, over windows from one chunk to the whole
// recipe, with chunks larger than the window, on the sim and the file
// backend, at GOMAXPROCS 1 (inline decode), 2 and 4 (the decode pool).
func TestFAAPlanMatchesReference(t *testing.T) {
	oversized := [][]byte{
		mkDatas(1, 300)[0], bytes.Repeat([]byte{7}, 2000), mkDatas(1, 300)[0],
		bytes.Repeat([]byte{8}, 2500), bytes.Repeat([]byte{9}, 900), mkDatas(1, 300)[0],
	}
	for _, tc := range []struct {
		name    string
		dataCap int64 // × containers = the window
		datas   [][]byte
	}{
		{"one-chunk-windows", 350, mkDatas(24, 300)}, // 350, 700, 1050: one to three chunks
		{"small-windows", 1500, mkDatas(60, 300)},    // 1500, 3000, 4500
		{"containers", 4096, mkDatas(60, 300)},       // 4096, 8192, 12288
		{"oversized-chunks", 350, oversized},         // every window smaller than three of the chunks
	} {
		for _, containers := range []int{1, 2, 3} {
			for _, backend := range []string{"sim", "file"} {
				t.Run(fmt.Sprintf("%s/window%d/%s", tc.name, int64(containers)*tc.dataCap, backend), func(t *testing.T) {
					build := func() (*container.Store, *chunk.Recipe) {
						var s *container.Store
						if backend == "file" {
							s, _ = fileRigCap(t, tc.dataCap)
						} else {
							s = rigCap(t, true, tc.dataCap)
						}
						return s, interleave(ingest(t, s, "base", tc.datas), "frag")
					}
					s1, frag1 := build()
					var want bytes.Buffer
					ref, err := RunFAA(context.Background(), s1, frag1,
						FAAConfig{AreaBytes: int64(containers) * tc.dataCap, Verify: true}, &want)
					if err != nil {
						t.Fatal(err)
					}
					if ref.ContainerReads < int64(s1.NumContainers()) || want.Len() == 0 {
						t.Fatalf("the reference read %d of %d containers for %d bytes", ref.ContainerReads, s1.NumContainers(), want.Len())
					}
					for _, procs := range []int{1, 2, 4} {
						setProcs(t, procs)
						s2, frag2 := build()
						var got bytes.Buffer
						st, err := RunPipelined(context.Background(), s2, frag2,
							PipelineConfig{CacheContainers: containers, Policy: PolicyFAA, Verify: true}, &got)
						if err != nil {
							t.Fatal(err)
						}
						if st != ref {
							t.Fatalf("procs %d: stats diverge:\nreference %+v\nplanned   %+v", procs, ref, st)
						}
						if !bytes.Equal(got.Bytes(), want.Bytes()) {
							t.Fatalf("procs %d: restored streams differ", procs)
						}
						if s1.Device().Stats() != s2.Device().Stats() {
							t.Fatalf("procs %d: device stats diverge:\nreference %v\nplanned   %v",
								procs, s1.Device().Stats(), s2.Device().Stats())
						}
					}
				})
			}
		}
	}
}

// Every pipelined mode must reconstruct the exact original stream. The
// "parallel" and "everything" shapes run the decode pool at four workers; the
// rest run at the host's GOMAXPROCS.
func TestPipelinedRoundTripAllModes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   PipelineConfig
		procs int
	}{
		{"opt-serial", PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Verify: true}, 0},
		{"opt-coalesce", PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Coalesce: true, Verify: true}, 0},
		{"lru-coalesce", PipelineConfig{CacheContainers: 4, Policy: PolicyLRU, Coalesce: true, Verify: true}, 0},
		{"opt-parallel", PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Verify: true}, 4},
		{"everything", PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Coalesce: true, Verify: true}, 4},
		{"faa", PipelineConfig{CacheContainers: 1, Policy: PolicyFAA, Verify: true}, 0},
		{"faa-everything", PipelineConfig{CacheContainers: 1, Policy: PolicyFAA, Coalesce: true, Verify: true}, 4},
		{"default", fullShape(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				setProcs(t, tc.procs)
			}
			s := rig(t, true)
			datas := mkDatas(60, 300)
			seq := ingest(t, s, "base", datas)
			frag := interleave(seq, "frag")
			want := wantBytes(datas, frag, seq)
			if err := VerifyAgainst(context.Background(), s, frag, tc.cfg, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Coalescing on a sequential recipe folds adjacent container fetches into
// extents: fewer physical reads, same container fetch count, and a strictly
// shorter simulated duration (seeks saved).
func TestCoalescingReducesExtentReads(t *testing.T) {
	s1 := rig(t, false)
	s2 := rig(t, false)
	datas := mkDatas(60, 300)
	rec1 := ingest(t, s1, "seq", datas)
	rec2 := ingest(t, s2, "seq", datas)

	plain, err := RunPipelined(context.Background(), s1, rec1, PipelineConfig{CacheContainers: 4, Policy: PolicyOPT}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coalesced, err := RunPipelined(context.Background(), s2, rec2, PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Coalesce: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.ExtentReads != plain.ContainerReads || plain.CoalescedContainers != 0 {
		t.Fatalf("uncoalesced run must have one extent per container: %+v", plain)
	}
	if coalesced.ContainerReads != plain.ContainerReads {
		t.Fatalf("coalescing must not change the miss schedule: %d vs %d",
			coalesced.ContainerReads, plain.ContainerReads)
	}
	if coalesced.ExtentReads >= plain.ExtentReads {
		t.Fatalf("sequential recipe should coalesce: %d extents vs %d reads",
			coalesced.ExtentReads, plain.ExtentReads)
	}
	if coalesced.CoalescedContainers != coalesced.ContainerReads-coalesced.ExtentReads {
		t.Fatalf("coalesced accounting inconsistent: %+v", coalesced)
	}
	if coalesced.Duration >= plain.Duration {
		t.Fatalf("coalescing should save seek time: %v >= %v", coalesced.Duration, plain.Duration)
	}
}

// Coalesced timing must be deterministic: the same restore of a fragmented
// recipe on fresh stores gives the same Stats, Duration included, however
// the fetcher and the decode pool interleave.
func TestParallelTimingDeterministic(t *testing.T) {
	var prev Stats
	for i := 0; i < 3; i++ {
		s := rig(t, false)
		datas := mkDatas(60, 300)
		seq := ingest(t, s, "base", datas)
		frag := interleave(seq, "frag")
		st, err := RunPipelined(context.Background(), s, frag, PipelineConfig{CacheContainers: 2, Policy: PolicyOPT, Coalesce: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.Label = prev.Label
		if i > 0 && !reflect.DeepEqual(prev, st) {
			t.Fatalf("run %d diverged:\n%+v\n%+v", i, prev, st)
		}
		prev = st
	}
}

// Race-hygiene stress: several concurrent coalesced restores with
// verification on a shared store (run under go test -race).
func TestPipelinedConcurrentStress(t *testing.T) {
	s := rig(t, true)
	datas := mkDatas(80, 300)
	seq := ingest(t, s, "base", datas)
	frag := interleave(seq, "frag")
	want := wantBytes(datas, frag, seq)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			st, err := RunPipelined(context.Background(), s, frag,
				PipelineConfig{CacheContainers: 3, Policy: PolicyOPT, Coalesce: true, Verify: true}, &out)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out.Bytes(), want) {
				errs <- fmt.Errorf("concurrent restore produced a corrupt stream")
				return
			}
			if st.Chunks != int64(len(frag.Refs)) {
				errs <- fmt.Errorf("concurrent restore stats wrong: %+v", st)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPipelinedRejectsUnsealedAndHoleVerify(t *testing.T) {
	s := rig(t, false)
	rec := &chunk.Recipe{Label: "u"}
	loc := mustWrite(s, chunk.New([]byte("pending")), 0)
	rec.Append(chunk.Of([]byte("pending")), 7, loc)
	if _, err := RunPipelined(context.Background(), s, rec, fullShape(), nil); err == nil {
		t.Fatal("unsealed container must be rejected")
	}

	s2 := rig(t, false)
	rec2 := ingest(t, s2, "v", mkDatas(2, 100))
	cfg := fullShape()
	cfg.Verify = true
	if _, err := RunPipelined(context.Background(), s2, rec2, cfg, nil); err == nil {
		t.Fatal("Verify on hole device must error")
	}
}

func TestPipelinedEmptyRecipe(t *testing.T) {
	s := rig(t, false)
	for _, coalesce := range []bool{false, true} {
		st, err := RunPipelined(context.Background(), s, &chunk.Recipe{Label: "empty"},
			PipelineConfig{CacheContainers: 4, Coalesce: coalesce}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != 0 || st.Chunks != 0 || st.ContainerReads != 0 || st.ExtentReads != 0 {
			t.Fatalf("empty restore stats = %+v", st)
		}
	}
}

func TestPipelinedVerifyCatchesCorruption(t *testing.T) {
	s := rig(t, true)
	rec := ingest(t, s, "c", mkDatas(3, 100))
	rec.Refs[1].FP = chunk.Of([]byte("not the real content"))
	cfg := fullShape()
	cfg.Verify = true
	if _, err := RunPipelined(context.Background(), s, rec, cfg, nil); err == nil {
		t.Fatal("fingerprint mismatch must be detected")
	}
}
