package restore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
)

// TestDecodeWorkersDeterminism: the decode pool is wall-clock only. Restored
// bytes, every Stats field (including the simulated Duration), and the
// device-level seek/read/byte counters must be bit-identical with inline
// decode (GOMAXPROCS 1) and with a pool of two or four decode workers
// (GOMAXPROCS 2, 4) — the extents are fetched ahead of use by another
// goroutine in every mode, Workers == 1 included — for every pipeline mode — the restore analogue of the ingest
// TestParallelWorkersDeterminism.
func TestDecodeWorkersDeterminism(t *testing.T) {
	modes := []struct {
		name string
		cfg  PipelineConfig
	}{
		{"lru-serial", PipelineConfig{CacheContainers: 4, Policy: PolicyLRU, Workers: 1, Verify: true}},
		{"opt-coalesce", PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Workers: 1, Coalesce: true, Verify: true}},
		{"opt-lanes", PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Workers: 4, Coalesce: true, Verify: true}},
		{"faa", PipelineConfig{CacheContainers: 1, Policy: PolicyFAA, Workers: 1, Verify: true}},
		{"faa-lanes", PipelineConfig{CacheContainers: 1, Policy: PolicyFAA, Workers: 4, Coalesce: true, Verify: true}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			type result struct {
				st   Stats
				out  []byte
				seek int64
				read int64
			}
			run := func() result {
				s := rig(t, true)
				datas := mkDatas(60, 300)
				seq := ingest(t, s, "base", datas)
				frag := interleave(seq, "frag")
				var buf bytes.Buffer
				st, err := RunPipelined(context.Background(), s, frag, mode.cfg, &buf)
				if err != nil {
					t.Fatal(err)
				}
				ds := s.Device().Stats()
				return result{st: st, out: buf.Bytes(), seek: ds.Seeks, read: ds.BytesRead}
			}
			setProcs(t, 1)
			base := run()
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
					setProcs(t, procs)
					got := run()
					if got.st != base.st {
						t.Errorf("stats %+v != serial %+v", got.st, base.st)
					}
					if !bytes.Equal(got.out, base.out) {
						t.Error("restored bytes differ")
					}
					if got.seek != base.seek || got.read != base.read {
						t.Errorf("device stats %d/%d != %d/%d", got.seek, got.read, base.seek, base.read)
					}
				})
			}
		})
	}
}

// TestDecodeWorkersVerifyError pins error semantics: the parallel decode
// pool must surface the same first-in-stream fingerprint mismatch, with the
// same in-order partial progress, as the inline serial path.
func TestDecodeWorkersVerifyError(t *testing.T) {
	run := func(procs int) (Stats, error) {
		setProcs(t, procs)
		s := rig(t, true)
		datas := mkDatas(60, 300)
		rec := ingest(t, s, "bad", datas)
		rec.Refs[37].FP = chunk.Of([]byte("not the real content"))
		cfg := PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Workers: 1, Coalesce: true, Verify: true}
		return RunPipelined(context.Background(), s, rec, cfg, &bytes.Buffer{})
	}
	_, serialErr := run(1)
	if serialErr == nil {
		t.Fatal("serial path must detect the mismatch")
	}
	for _, procs := range []int{2, 8} {
		_, err := run(procs)
		if err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("procs=%d: err %v, want %v", procs, err, serialErr)
		}
	}
}

// failAfterWriter errors once n bytes have been written.
type failAfterWriter struct {
	n       int64
	written int64
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.written += int64(len(p))
	if w.written > w.n {
		return 0, errors.New("writer full")
	}
	return len(p), nil
}

func TestDecodeWorkersWriteError(t *testing.T) {
	run := func(procs int) (Stats, error) {
		setProcs(t, procs)
		s := rig(t, true)
		datas := mkDatas(40, 300)
		rec := ingest(t, s, "we", datas)
		cfg := PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Workers: 1, Verify: true}
		return RunPipelined(context.Background(), s, rec, cfg, &failAfterWriter{n: 5000})
	}
	stSerial, serialErr := run(1)
	if serialErr == nil {
		t.Fatal("serial path must surface the write error")
	}
	for _, procs := range []int{2, 8} {
		st, err := run(procs)
		if err == nil || err.Error() != serialErr.Error() {
			t.Fatalf("procs=%d: err %v, want %v", procs, err, serialErr)
		}
		if st.Bytes != stSerial.Bytes || st.Chunks != stSerial.Chunks {
			t.Fatalf("procs=%d: partial progress %d/%d, want %d/%d",
				procs, st.Bytes, st.Chunks, stSerial.Bytes, stSerial.Chunks)
		}
	}
}

// TestParallelDecodeFailureReleasesPins is the regression guard for the
// early stop: with the decode pool engaged, a verify mismatch or writer error
// fails the resequencer, push() returns false, and the assembler's run()
// returns nil without consuming every planned extent — close() surfaces the
// error. The fetcher, which is reading the next extent into a piece of the
// restore's section set, must still be stopped and joined, at every lane
// count: the set is released with no loan of a fetch in progress still out,
// and the restore leaves no goroutine of its own behind.
func TestParallelDecodeFailureReleasesPins(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt bool // fingerprint mismatch vs writer error
		workers int
	}{
		{"verify-mismatch", true, 8},
		{"writer-error", false, 8},
		{"verify-mismatch-one-lane", true, 1},
		{"writer-error-one-lane", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setProcs(t, 4)
			goroutines := runtime.NumGoroutine()
			s, spy := fileRig(t)
			datas := mkDatas(1500, 100)
			seq := ingest(t, s, "base", datas)
			frag := interleave(seq, "frag")
			if tc.corrupt {
				frag.Refs[1].FP = chunk.Of([]byte("not the real content"))
			}
			// The fetcher's reads outlast the assembler's failure, so a run()
			// that did not join it would release the set mid-fetch.
			spy.delay = 20 * time.Millisecond
			var w io.Writer = &bytes.Buffer{}
			if !tc.corrupt {
				w = &failAfterWriter{n: 300}
			}
			released, lentOut := 0, 0
			sectionSetReleased = func(set *sectionSet) {
				set.mu.Lock()
				released++
				lentOut += len(set.lent)
				set.mu.Unlock()
			}
			defer func() { sectionSetReleased = nil }()
			cfg := PipelineConfig{CacheContainers: 2, Policy: PolicyOPT, Workers: tc.workers, Verify: true}
			if _, err := RunPipelined(context.Background(), s, frag, cfg, w); err == nil {
				t.Fatal("expected the restore to fail")
			}
			if released != 1 || lentOut != 0 {
				t.Fatalf("section set released %d times with %d loans of a fetch in progress still out", released, lentOut)
			}
			// The decode workers exit on their own once close() has closed
			// their queue; give them a moment.
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines before the failed restore, %d after", goroutines, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestConcurrentSiblingRestores drives concurrent parallel-decode restores of
// two sibling recipes — one sequential, one interleaved over the same
// containers — off one file-backed store. Every stream gets byte-identical
// output and reads its own sections: the backend serves exactly the reads
// the restores make one at a time, no fewer and no more. Run under -race this
// is the pipeline-level concurrency guard for readers of shared containers.
func TestConcurrentSiblingRestores(t *testing.T) {
	setProcs(t, 4)
	s, spy := fileRig(t)
	datas := mkDatas(60, 300)
	seq := ingest(t, s, "base", datas)
	frag := interleave(seq, "frag")
	recipes := []*chunk.Recipe{seq, frag}
	wants := [][]byte{wantBytes(datas, seq, seq), wantBytes(datas, frag, seq)}
	cfg := PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Workers: 2, Coalesce: true, Verify: true}

	serial := 0
	for _, rec := range recipes {
		_, before := spy.arrays()
		if _, err := RunPipelined(context.Background(), s, rec, cfg, io.Discard); err != nil {
			t.Fatal(err)
		}
		_, after := spy.arrays()
		serial += after - before
	}

	const rounds = 4
	_, before := spy.arrays()
	var wg sync.WaitGroup
	outs := make([][]byte, rounds*len(recipes))
	errs := make([]error, len(outs))
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			_, err := RunPipelined(context.Background(), s, recipes[i%len(recipes)], cfg, &buf)
			outs[i], errs[i] = buf.Bytes(), err
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], wants[i%len(recipes)]) {
			t.Fatalf("stream %d: restored bytes differ", i)
		}
	}
	if _, after := spy.arrays(); after-before != rounds*serial {
		t.Fatalf("%d concurrent restores read %d sections, want %d × the %d of one restore of each sibling",
			len(outs), after-before, rounds, serial)
	}
}
