package restore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/container"
	"repro/internal/disk"
)

// spyBackend sits where a WrapBackend wrapper would — it forwards the ctx and
// the returned slices, nothing else — and remembers every section it passed
// up, by array, so a test can tell a reused buffer from a new one. Holding
// the slices keeps their addresses from being recycled by the collector.
type spyBackend struct {
	blockstore.Backend
	mu    sync.Mutex
	seen  map[*byte]int
	reads int
	bytes int64         // of the sections read, as they came back
	ids   []uint32      // of the containers read
	read  chan struct{} // one token per section read, never blocking
	// corruptAt, when > 0, makes the corruptAt-th section read come back as a
	// private copy with a bit flipped in every 256 bytes: in every chunk of the
	// rigs here, so in whichever of them that fetch was for.
	corruptAt int
	// delay holds each read back this long after it is done.
	delay time.Duration
}

func (b *spyBackend) note(data []byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reads++
	b.bytes += int64(len(data))
	if b.reads == b.corruptAt {
		data = append([]byte(nil), data...)
		for i := 0; i < len(data); i += 256 {
			data[i] ^= 1
		}
	}
	b.seen[&data[0]]++
	select {
	case b.read <- struct{}{}:
	default:
	}
	return data
}

func (b *spyBackend) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	data, err := b.Backend.ReadData(ctx, id)
	if err != nil {
		return nil, err
	}
	return b.note(data), nil
}

func (b *spyBackend) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	out, err := b.Backend.ReadDataRange(ctx, ids)
	time.Sleep(b.delay)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = b.note(out[i])
	}
	b.mu.Lock()
	b.ids = append(b.ids, ids...)
	b.mu.Unlock()
	return out, nil
}

// whole is the bytes of the sections read so far, whole.
func (b *spyBackend) whole(s *container.Store) (n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, id := range b.ids {
		n += s.DataFill(id)
	}
	return n
}

// arrays returns how many distinct arrays the sections read so far sat in,
// and how many sections were read.
func (b *spyBackend) arrays() (distinct, reads int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.seen), b.reads
}

// fileRig is rig over the file backend, behind a spy: 4 KiB containers of
// 300-byte chunks, so a 60-chunk stream spans five of them.
func fileRig(t *testing.T) (*container.Store, *spyBackend) {
	t.Helper()
	return fileRigCap(t, 4096)
}

// fileRigCap is rigCap over the file backend, behind a spy.
func fileRigCap(t *testing.T, dataCap int64) (*container.Store, *spyBackend) {
	t.Helper()
	file, err := blockstore.OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	spy := &spyBackend{Backend: file, seen: map[*byte]int{}, read: make(chan struct{}, 1<<16)}
	var clk disk.Clock
	s, err := container.NewStoreWithBackend(disk.NewDevice(disk.DefaultModel(), &clk, true),
		container.Config{DataCap: dataCap, MaxChunks: 16}, spy)
	if err != nil {
		t.Fatal(err)
	}
	return s, spy
}

func TestSectionSetIsAFixedBudget(t *testing.T) {
	s := newSectionSet(64, 2)
	a, b, c := s.lend(64), s.lend(10), s.lend(40)
	if len(a) != 64 || len(b) != 10 || len(c) != 40 || cap(c) != 40 || &a[0] == &b[0] {
		t.Fatal("loans must be pieces of the fetch's size, a new slab only where no slab has room")
	}
	// The peak is the fullest moment the most slabs were out.
	if s.peak != (heldBytes{bytes: 128, want: 114, sections: 3}) {
		t.Fatalf("peak %+v, want two slabs holding a, b and c", s.peak)
	}
	if s.lend(20) != nil {
		t.Fatal("a loan that fits no gap exceeds the budget")
	}
	if s.lend(65) != nil || s.lend(0) != nil {
		t.Fatal("a section that does not fit one slab, or an empty one, gets no loan")
	}
	// b came back as a section, a and c did not (the read failed): they are
	// free again.
	s.settle([][]byte{b[:10]})
	if !s.owns(b[:10]) || s.owns(a) || s.owns([]byte("somebody else's")) || s.owns(nil) {
		t.Fatal("owns must recognise exactly the sections the set holds")
	}
	// (The first two may have come from an earlier test's restore: reused
	// counts those too.)
	before := s.reused
	if again := s.lend(64); &again[0] != &a[0] || s.reused != before+1 {
		t.Fatalf("the unused loan was not lent again (reused %d, was %d)", s.reused, before)
	}
	s.settle(nil)
	// The smallest gap that fits: behind b, not the empty slab.
	if behind := s.lend(50); &behind[0] != &c[0] {
		t.Fatal("a loan must take the smallest gap it fits")
	}
	s.settle(nil)
	s.giveBack([]byte("somebody else's")) // a shared view: ignored
	s.giveBack(b[:10])
	if len(s.slabs) != 2 || len(s.out) != 0 || s.held != (heldBytes{}) || s.peak.bytes != 128 {
		t.Fatalf("after handing everything back the set has %d slabs, %d sections, %+v held (peak %+v)", len(s.slabs), len(s.out), s.held, s.peak)
	}
}

// TestFileRestoreReusesSectionsInEveryShape restores a fragmented recipe off
// the file backend in every shape of the pipeline, inline (decode1: GOMAXPROCS
// 1) and through the decode pool (decode2, decode4), and checks, for each, the
// bytes, and that sections did come back in buffers used before (a test of
// reuse that never reuses proves nothing).
// TestSectionNotReusedWhileADecodeBatchViewsIt is the one that makes the
// decode pool reuse.
func TestFileRestoreReusesSectionsInEveryShape(t *testing.T) {
	for _, policy := range []CachePolicy{PolicyLRU, PolicyOPT, PolicyFAA} {
		for _, coalesce := range []bool{false, true} {
			for _, dw := range []int{1, 2, 4} {
				cfg := PipelineConfig{CacheContainers: 2, Policy: policy, Workers: 1, Coalesce: coalesce, Verify: true}
				// The ids keep a constant "chunkfalse": test history is keyed on them.
				t.Run(fmt.Sprintf("%v-chunkfalse-coalesce%v-decode%d", policy, coalesce, dw), func(t *testing.T) {
					setProcs(t, dw)
					s, spy := fileRig(t)
					datas := mkDatas(120, 300)
					seq := ingest(t, s, "base", datas)
					frag := interleave(seq, "frag")
					var out bytes.Buffer
					st, err := RunPipelined(context.Background(), s, frag, cfg, &out)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out.Bytes(), wantBytes(datas, frag, seq)) {
						t.Fatal("restored stream differs")
					}
					distinct, reads := spy.arrays()
					if int64(reads) != st.ContainerReads {
						t.Fatalf("backend served %d sections, stats say %d", reads, st.ContainerReads)
					}
					if st.ContainerReads <= 2*int64(cfg.CacheContainers) {
						t.Fatalf("only %d reads: the cache hardly evicted", st.ContainerReads)
					}
					// Only inline decode frees a buffer at a fixed point; how
					// soon the pool's resequencer does is the scheduler's.
					if dw == 1 && distinct >= reads {
						t.Fatalf("%d reads landed in %d arrays: nothing was reused", reads, distinct)
					}
					// Every section is read many times over, and each time only
					// for the chunks that residency serves, which is what comes
					// back.
					if whole := spy.whole(s); st.ReadBytes < st.Bytes || st.ReadBytes >= whole || st.ReadBytes != spy.bytes {
						t.Fatalf("asked for %d bytes and got %d: want at least the %d restored and less than the %d of the whole sections a thrashing recipe fetches",
							st.ReadBytes, spy.bytes, st.Bytes, whole)
					}
				})
			}
		}
	}
}

// TestALoanWaitsForTheSectionsDue is the set's side of the decode pool's
// ordering: a loan that finds no room while sections are due back waits for
// them instead of drawing a slab, and draws one only once readAheadPatience
// has passed with none back — a writer that stands still.
func TestALoanWaitsForTheSectionsDue(t *testing.T) {
	s := newSectionSet(64, 3)
	a := s.lend(40)
	s.settle([][]byte{a})
	s.owe(1) // a is retired, and on its way back
	loan := make(chan []byte)
	go func() { loan <- s.lend(40) }()
	select {
	case <-loan:
		t.Fatal("a loan that found no room went ahead before the section due came back")
	case <-time.After(20 * time.Millisecond):
	}
	s.giveBack(a)
	b := <-loan
	if &b[0] != &a[0] || len(s.slabs) != 1 {
		t.Fatalf("the loan drew slab %d instead of taking the place of the section due back", len(s.slabs))
	}
	s.settle([][]byte{b})
	s.owe(2) // b is retired too, and never comes back
	t0 := time.Now()
	if c := s.lend(40); c == nil || len(s.slabs) != 2 {
		t.Fatal("a loan that waited in vain must draw a slab")
	}
	if waited := time.Since(t0); waited < readAheadPatience {
		t.Fatalf("the loan drew a slab after %v, before the section due back had had %v", waited, readAheadPatience)
	}
}

// gateWriter compares what it is given with what it should be given, and
// holds its first Write until the backend has served `more` sections in all
// — the resequencer stands still on the restore's first chunk while the
// assembler and the fetcher run as far ahead of it as the pipeline lets them.
type gateWriter struct {
	t    *testing.T
	want []byte
	off  int
	spy  *spyBackend
	more int
	bad  bool
}

func (w *gateWriter) Write(p []byte) (int, error) {
	if w.off == 0 {
		for k := 0; k < w.more; k++ {
			select {
			case <-w.spy.read:
			case <-time.After(5 * time.Second):
				w.t.Errorf("only %d sections were read before the first chunk was written: the test forces no overlap", k)
				k = w.more
			}
		}
	}
	if !w.bad && !bytes.Equal(p, w.want[w.off:w.off+len(p)]) {
		w.bad = true
		w.t.Errorf("chunk at offset %d was overwritten before it was written out", w.off)
	}
	w.off += len(p)
	return len(p), nil
}

// TestSectionNotReusedWhileADecodeBatchViewsIt is the retire-after-emit rule:
// with a one-container cache every ref of the interleaved recipe is the last
// use of the section it is cut from, and the output writer is held on the
// first chunk until the fetcher has read eight sections. Handing a retired
// buffer straight back would let those reads land on chunks still waiting to
// be written; the bytes that reach the writer must be the original ones all
// the same. Verify is off so that nothing but the writer looks at them. Under
// PolicyFAA a section is read once per one-container window and retired at
// its last ref in the window; the recipe is longer there, so that most
// windows come after the writer is let go and find buffers to reuse. decodeN
// runs a pool of N decode workers (GOMAXPROCS N).
func TestSectionNotReusedWhileADecodeBatchViewsIt(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		policy CachePolicy
		chunks int
	}{
		{"", PolicyLRU, 120},
		{"faa-", PolicyFAA, 480},
	} {
		for _, dw := range []int{2, 4} {
			t.Run(fmt.Sprintf("%sdecode%d", tc.prefix, dw), func(t *testing.T) {
				setProcs(t, dw)
				s, spy := fileRig(t)
				datas := mkDatas(tc.chunks, 300)
				seq := ingest(t, s, "base", datas)
				frag := interleave(seq, "frag")
				w := &gateWriter{t: t, want: wantBytes(datas, frag, seq), spy: spy, more: 8}
				st, err := RunPipelined(context.Background(), s, frag,
					PipelineConfig{CacheContainers: 1, Policy: tc.policy, Workers: 1}, w)
				if err != nil {
					t.Fatal(err)
				}
				if w.off != len(w.want) {
					t.Fatalf("wrote %d of %d bytes", w.off, len(w.want))
				}
				if distinct, reads := spy.arrays(); distinct >= reads {
					t.Fatalf("%d reads in %d arrays: nothing was reused, so nothing was at risk", reads, distinct)
				}
				thrash := int64(len(frag.Refs)) / 2
				if tc.policy == PolicyFAA {
					thrash = 2 * int64(s.NumContainers())
				}
				if st.ContainerReads < thrash {
					t.Fatalf("only %d reads for %d refs in %d containers: the recipe did not thrash",
						st.ContainerReads, len(frag.Refs), s.NumContainers())
				}
			})
		}
	}
}

// TestFileRestoreEarlyStops runs the two in-stream failures over reused
// sections: a writer that fails part-way, and a section that comes back
// corrupted (as a private copy, so the buffer lent for it is an unused loan).
// With the decode pool (GOMAXPROCS 2, 4) each must stop at the ref, with the
// error and the tallies, of inline decode (GOMAXPROCS 1); no goroutine may
// outlive the call; and the next restore of the same store must be whole.
func TestFileRestoreEarlyStops(t *testing.T) {
	datas := mkDatas(120, 300)
	for _, tc := range []struct {
		name      string
		failAfter int64 // bytes the writer takes; 0 = all
		corruptAt int   // which section read comes back corrupted; 0 = none
	}{
		{"writer fails", 21000, 0},
		{"fingerprint mismatch", 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want Stats
			var wantErr string
			for _, dw := range []int{1, 2, 4} {
				setProcs(t, dw)
				s, spy := fileRig(t)
				seq := ingest(t, s, "base", datas)
				frag := interleave(seq, "frag")
				spy.corruptAt = tc.corruptAt
				var w io.Writer = io.Discard
				if tc.failAfter > 0 {
					w = &failAfterWriter{n: tc.failAfter}
				}
				before := runtime.NumGoroutine()
				cfg := PipelineConfig{CacheContainers: 2, Policy: PolicyOPT, Workers: 1, Verify: true}
				st, err := RunPipelined(context.Background(), s, frag, cfg, w)
				if err == nil {
					t.Fatalf("decode %d: the restore succeeded", dw)
				}
				if st.Bytes == 0 || st.Bytes >= frag.Bytes() {
					t.Fatalf("decode %d: stopped after %d of %d bytes, not mid-stream", dw, st.Bytes, frag.Bytes())
				}
				if dw == 1 {
					want, wantErr = st, err.Error()
				} else if st.Bytes != want.Bytes || st.Chunks != want.Chunks || err.Error() != wantErr {
					t.Fatalf("decode %d: stopped at %d bytes, %d chunks, %q; inline decode at %d, %d, %q",
						dw, st.Bytes, st.Chunks, err, want.Bytes, want.Chunks, wantErr)
				}
				for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
					time.Sleep(5 * time.Millisecond) // decode workers exit on their own after close
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Fatalf("decode %d: %d goroutines before the failed restore, %d after", dw, before, n)
				}
				var out bytes.Buffer
				if _, err := RunPipelined(context.Background(), s, frag, cfg, &out); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.Bytes(), wantBytes(datas, frag, seq)) {
					t.Fatalf("decode %d: the restore after the failed one differs", dw)
				}
			}
		})
	}
}

// TestReleasedSectionsHaveNoViewers is the restore's half of the question the
// root package's holderSpy asks ("may a sibling draw this buffer yet?"): when
// RunPipelined returns — whole, on a failing writer, on a corrupted section,
// cancelled — its buffers are in sectionBufs, and nothing of that restore
// looks at them again. The test takes every pooled buffer the moment the
// call returns and writes over it; a straggler still hashing or copying out
// of one is a report under -race, and a wrong byte in a later restore without.
func TestReleasedSectionsHaveNoViewers(t *testing.T) {
	datas := mkDatas(120, 300)
	scribble := func() (n int) {
		for {
			kept, _ := sectionBufs.Get().(*[]byte)
			if kept == nil {
				return n
			}
			buf := (*kept)[:cap(*kept)]
			for i := range buf {
				buf[i] ^= 0x5A
			}
			n++
		}
	}
	scribble() // what earlier tests left
	var scribbled int
	for _, dw := range []int{1, 2, 4} {
		setProcs(t, dw)
		s, spy := fileRig(t)
		seq := ingest(t, s, "base", datas)
		frag := interleave(seq, "frag")
		cfg := PipelineConfig{CacheContainers: 2, Policy: PolicyOPT, Workers: 1, Verify: true}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for _, end := range []struct {
			name    string
			ctx     context.Context
			w       io.Writer
			corrupt int // which of its section reads comes back corrupted; 0 = none
		}{
			{"whole", context.Background(), io.Discard, 0},
			{"writer fails", context.Background(), &failAfterWriter{n: 21000}, 0},
			{"corrupted section", context.Background(), io.Discard, 4},
			{"cancelled", cancelled, io.Discard, 0},
		} {
			if end.corrupt > 0 {
				spy.corruptAt = spy.reads + end.corrupt
			}
			_, err := RunPipelined(end.ctx, s, frag, cfg, end.w)
			scribbled += scribble()
			if (err == nil) != (end.name == "whole") {
				t.Fatalf("decode %d, %s: %v", dw, end.name, err)
			}
			spy.corruptAt = 0
			var out bytes.Buffer
			if _, err := RunPipelined(context.Background(), s, frag, cfg, &out); err != nil || !bytes.Equal(out.Bytes(), wantBytes(datas, frag, seq)) {
				t.Fatalf("decode %d: the restore after %q differs (%v)", dw, end.name, err)
			}
			scribbled += scribble()
		}
	}
	if scribbled == 0 {
		t.Fatal("no buffer was ever found in the pool: nothing was tested")
	}
}
