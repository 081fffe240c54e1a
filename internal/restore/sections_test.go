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

// mapSpy is a blockstore.FS over the operating system's whose Map hands out
// buffers of its own, the file's bytes copied in: a buffer a released section
// left, when one of the size is free — the kernel reuses address space the
// same way — else a new one. Release poisons a buffer (0xA5) before it is
// free again, so a reader that still looks at a section it let go of sees
// poison or another section, never the right bytes by luck. It counts the
// mappings out, their peak and the releases.
type mapSpy struct {
	blockstore.FS
	mu                   sync.Mutex
	free                 map[int][][]byte
	live, peak, released int
}

func newMapSpy() *mapSpy { return &mapSpy{FS: blockstore.OS, free: map[int][][]byte{}} }

func (m *mapSpy) OpenFile(name string, flag int) (blockstore.FSFile, error) {
	f, err := m.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return spiedFile{f, m}, nil
}

// counts returns the mappings out, their peak and the releases so far.
func (m *mapSpy) counts() (live, peak, released int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live, m.peak, m.released
}

type spiedFile struct {
	blockstore.FSFile
	m *mapSpy
}

func (f spiedFile) Map(n int64) ([]byte, func() error, error) {
	m := f.m
	m.mu.Lock()
	var buf []byte
	if k := len(m.free[int(n)]); k > 0 {
		buf, m.free[int(n)] = m.free[int(n)][k-1], m.free[int(n)][:k-1]
	}
	m.mu.Unlock()
	if buf == nil {
		buf = make([]byte, n)
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, nil, err
	}
	m.mu.Lock()
	m.live++
	m.peak = max(m.peak, m.live)
	m.mu.Unlock()
	return buf, func() error {
		for i := range buf {
			buf[i] = 0xA5
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		m.live--
		m.released++
		m.free[len(buf)] = append(m.free[len(buf)], buf)
		return nil
	}, nil
}

// spyBackend sits where a WrapBackend wrapper would — it forwards the ctx and
// the returned slices, nothing else — over a file backend on a mapSpy, and
// remembers every section it passed up, by array, so a test can tell a
// buffer mapped again from a new one.
type spyBackend struct {
	blockstore.Backend
	maps  *mapSpy
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
		blockstore.Release(data) // what the reader gets instead is the collector's
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

// fileRig is rig over the file backend on a mapSpy, behind a spy: 4 KiB
// containers of 300-byte chunks, so a 60-chunk stream spans five of them.
func fileRig(t *testing.T) (*container.Store, *spyBackend) {
	t.Helper()
	return fileRigCap(t, 4096)
}

// fileRigCap is rigCap over the file backend, behind a spy.
func fileRigCap(t *testing.T, dataCap int64) (*container.Store, *spyBackend) {
	t.Helper()
	maps := newMapSpy()
	file, err := blockstore.OpenFileOn(maps, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { file.Close() })
	spy := &spyBackend{Backend: file, maps: maps, seen: map[*byte]int{}, read: make(chan struct{}, 1<<16)}
	var clk disk.Clock
	s, err := container.NewStoreWithBackend(disk.NewDevice(disk.DefaultModel(), &clk, true),
		container.Config{DataCap: dataCap, MaxChunks: 16}, spy)
	if err != nil {
		t.Fatal(err)
	}
	return s, spy
}

// TestFileRestoreReusesSectionsInEveryShape restores a fragmented recipe off
// the file backend in every shape of the pipeline, inline (decode1: GOMAXPROCS
// 1) and through the decode pool (decode2, decode4), Verify off so that only
// the comparison with the source looks at the bytes, and checks, for each,
// the bytes, that every section is read whole, that every mapping is
// released by the time the restore returns, and that sections did come back
// in buffers a released one had (a test of release that never reuses proves
// nothing). TestSectionNotReusedWhileADecodeBatchViewsIt is the one that
// makes the decode pool reuse.
func TestFileRestoreReusesSectionsInEveryShape(t *testing.T) {
	for _, policy := range []CachePolicy{PolicyLRU, PolicyOPT, PolicyFAA} {
		for _, coalesce := range []bool{false, true} {
			for _, dw := range []int{1, 2, 4} {
				cfg := PipelineConfig{CacheContainers: 2, Policy: policy, Coalesce: coalesce}
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
					// Only inline decode releases a section at a fixed point; how
					// soon the pool's consumer does is the scheduler's.
					if dw == 1 && distinct >= reads {
						t.Fatalf("%d reads landed in %d arrays: nothing was reused", reads, distinct)
					}
					if whole := spy.whole(s); st.ReadBytes != whole || st.ReadBytes != spy.bytes {
						t.Fatalf("stats say %d bytes read, the backend returned %d: want both the %d of the whole sections", st.ReadBytes, spy.bytes, whole)
					}
					if live, _, released := spy.maps.counts(); live != 0 || released != reads {
						t.Fatalf("%d mappings still out and %d released after a restore that read %d sections", live, released, reads)
					}
				})
			}
		}
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
// first chunk until the fetcher has read eight sections. Releasing a retired
// section straight away would poison chunks still waiting to be written, and
// let those reads land in their buffers (mapSpy); the bytes that reach the
// writer must be the original ones all the same. Verify is off so that nothing but the writer looks at them. Under
// PolicyFAA a section is read once per one-container window and retired at
// its last ref in the window; the recipe is longer there, so that most
// windows come after the writer is let go and find released buffers to map. decodeN
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
					PipelineConfig{CacheContainers: 1, Policy: tc.policy}, w)
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

// TestFileRestoreEarlyStops runs the two in-stream failures over mapped
// sections: a writer that fails part-way, and a section that comes back
// corrupted (as a private copy, its mapping released on the way up).
// With the decode pool (GOMAXPROCS 2, 4) each must stop at the ref, with the
// error and the tallies, of inline decode (GOMAXPROCS 1); no goroutine and
// no mapping may outlive the call; and the next restore of the same store
// must be whole.
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
				cfg := PipelineConfig{CacheContainers: 2, Policy: PolicyOPT, Verify: true}
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
				if live, _, _ := spy.maps.counts(); live != 0 {
					t.Fatalf("decode %d: %d mappings still out after the failed restore", dw, live)
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

// TestReleasedSectionsHaveNoViewers is the restore's half of "no mapping
// outlives its reader": when RunPipelined returns — whole, on a failing
// writer, on a corrupted section, cancelled — every section it mapped has
// been released, and nothing of that restore looks at one again. mapSpy
// poisons each buffer as it is released and maps it again for the next
// restore; a straggler still hashing or copying out of one is a report under
// -race, and a wrong byte in the next restore without.
func TestReleasedSectionsHaveNoViewers(t *testing.T) {
	datas := mkDatas(120, 300)
	for _, dw := range []int{1, 2, 4} {
		setProcs(t, dw)
		s, spy := fileRig(t)
		seq := ingest(t, s, "base", datas)
		frag := interleave(seq, "frag")
		cfg := PipelineConfig{CacheContainers: 2, Policy: PolicyOPT, Verify: true}
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
			if (err == nil) != (end.name == "whole") {
				t.Fatalf("decode %d, %s: %v", dw, end.name, err)
			}
			if live, _, _ := spy.maps.counts(); live != 0 {
				t.Fatalf("decode %d, %s: %d mappings still out when the restore returned", dw, end.name, live)
			}
			spy.corruptAt = 0
			var out bytes.Buffer
			if _, err := RunPipelined(context.Background(), s, frag, cfg, &out); err != nil || !bytes.Equal(out.Bytes(), wantBytes(datas, frag, seq)) {
				t.Fatalf("decode %d: the restore after %q differs (%v)", dw, end.name, err)
			}
		}
		if _, _, released := spy.maps.counts(); released == 0 {
			t.Fatal("no mapping was ever released: nothing was tested")
		}
	}
}
