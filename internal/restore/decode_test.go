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
// (GOMAXPROCS 2, 4), at every shared-cache budget (the extents are fetched
// ahead of use by another goroutine in every mode, Workers == 1 included),
// for every pipeline mode — the restore analogue of the ingest
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
			run := func(cacheBudget int64) result {
				s := rig(t, true)
				datas := mkDatas(60, 300)
				seq := ingest(t, s, "base", datas)
				frag := interleave(seq, "frag")
				s.SetDataCache(cacheBudget)
				var buf bytes.Buffer
				st, err := RunPipelined(context.Background(), s, frag, mode.cfg, &buf)
				if err != nil {
					t.Fatal(err)
				}
				ds := s.Device().Stats()
				return result{st: st, out: buf.Bytes(), seek: ds.Seeks, read: ds.BytesRead}
			}
			setProcs(t, 1)
			base := run(0)
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
					setProcs(t, procs)
					for _, budget := range []int64{0, 2048, 1 << 20} {
						got := run(budget)
						if got.st != base.st {
							t.Errorf("budget=%d: stats %+v != serial %+v", budget, got.st, base.st)
						}
						if !bytes.Equal(got.out, base.out) {
							t.Errorf("budget=%d: restored bytes differ", budget)
						}
						if got.seek != base.seek || got.read != base.read {
							t.Errorf("budget=%d: device stats %d/%d != %d/%d",
								budget, got.seek, got.read, base.seek, base.read)
						}
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
// early-stop pin leak: with the decode pool engaged, a verify mismatch or
// writer error fails the resequencer, push() returns false, and the
// assembler's run() returns nil without consuming every planned extent —
// close() surfaces the error. The fetcher, which is holding the next extent
// pinned in the store's DataCache, must still be stopped and must release
// it, at every lane count: the restore returns with no pin held and no
// goroutine of its own left behind.
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
			s := rig(t, true)
			datas := mkDatas(1500, 100)
			seq := ingest(t, s, "base", datas)
			frag := interleave(seq, "frag")
			s.SetDataCache(64 << 20)
			if tc.corrupt {
				frag.Refs[1].FP = chunk.Of([]byte("not the real content"))
			}
			var w io.Writer = &bytes.Buffer{}
			if !tc.corrupt {
				w = &failAfterWriter{n: 300}
			}
			cfg := PipelineConfig{CacheContainers: 2, Policy: PolicyOPT, Workers: tc.workers, Verify: true}
			if _, err := RunPipelined(context.Background(), s, frag, cfg, w); err == nil {
				t.Fatal("expected the restore to fail")
			}
			// run() joins the fetcher before it returns, so the pin count is
			// exact here, not eventually.
			if st := s.DataCache().Stats(); st.Pinned != 0 {
				t.Fatalf("prefetched pins still held after failed restore: %+v", st)
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

// TestConcurrentRestoresSharedCache drives many concurrent parallel-decode
// restores of the same recipe over one store with a shared data cache
// attached, asserting every stream gets byte-identical output. Run under
// -race this is the pipeline-level concurrency guard for the shared cache.
func TestConcurrentRestoresSharedCache(t *testing.T) {
	setProcs(t, 4)
	s := rig(t, true)
	datas := mkDatas(60, 300)
	seq := ingest(t, s, "base", datas)
	frag := interleave(seq, "frag")
	want := wantBytes(datas, frag, seq)
	s.SetDataCache(1 << 20)

	const streams = 8
	var wg sync.WaitGroup
	outs := make([][]byte, streams)
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			cfg := PipelineConfig{CacheContainers: 4, Policy: PolicyOPT, Workers: 2, Coalesce: true, Verify: true}
			_, err := RunPipelined(context.Background(), s, frag, cfg, &buf)
			outs[i], errs[i] = buf.Bytes(), err
		}(i)
	}
	wg.Wait()
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("stream %d: restored bytes differ", i)
		}
	}
	cs := s.DataCache().Stats()
	if cs.Hits+cs.Waits == 0 {
		t.Fatalf("shared cache never hit across %d identical streams: %+v", streams, cs)
	}
	if cs.Misses > uint64(s.NumContainers()) {
		t.Fatalf("cache stats %+v: more misses than containers (%d) — single-flight broken",
			cs, s.NumContainers())
	}
}
