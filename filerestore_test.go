package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/restore"
	"repro/internal/workload"
)

// churnedFileStore builds what the rig's churn-maint workload builds, in
// small: gens generations of one file system on the file backend, of which
// the newest `keep` are retained — each ingest past that forgets the oldest
// backup and runs a maintenance epoch, so the retained recipes span original,
// rewritten and merged containers. It returns the store and the retained
// streams, oldest first.
func churnedFileStore(t *testing.T, opts Options, seed int64, files, gens, keep int) (*Store, [][]byte) {
	t.Helper()
	ctx := context.Background()
	opts.Engine, opts.Alpha, opts.StoreData = DeFrag, 0.1, true
	opts.Backend, opts.Dir = FileBackend, t.TempDir()
	opts.Maintenance = maintOptions()
	if opts.ExpectedBytes == 0 {
		opts.ExpectedBytes = 256 << 20
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	wcfg := workload.DefaultConfig(seed)
	wcfg.NumFiles = files
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var datas [][]byte
	for g := 0; g < gens; g++ {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Backup(ctx, b.Label, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		datas = append(datas, data)
		if bs := s.Backups(); len(bs) > keep {
			if !s.Forget(bs[0].Label).Found {
				t.Fatalf("forget %s: not found", bs[0].Label)
			}
			if _, err := s.MaintenanceEpoch(ctx); err != nil {
				t.Fatal(err)
			}
			datas = datas[1:]
		}
	}
	return s, datas
}

// TestFileRestoreReadGuard is the count-based guard of the file-backend
// restore path — no clock in it. Over a churned store, the default restore of
// the newest backup must (a) issue exactly the reads its forward-knowledge
// plan has, and no more than the recency plan would, (b) stay under a pinned
// read amplification, and (c) once its buffers exist, allocate next to
// nothing per restored byte: the sections land in the restore's own fixed
// set, not in a new buffer per fetch. It is the file-backend sibling of
// internal/restore's TestRestoreAllocBytesPerByte. On the way it pins which
// planner the default, a zero RestoreOptions and each explicit policy reach.
func TestFileRestoreReadGuard(t *testing.T) {
	ctx := context.Background()
	var counts *blockstore.Counting
	s, datas := churnedFileStore(t, Options{WrapBackend: func(be blockstore.Backend) blockstore.Backend {
		counts = blockstore.NewCounting(be)
		return counts
	}}, 42, 56, 9, 4)
	newest := s.Backups()[len(s.Backups())-1]
	want := datas[len(datas)-1]
	cache := DefaultRestoreOptions().CacheContainers

	plan := func(policy restore.CachePolicy) restore.Stats {
		t.Helper()
		st, err := restore.RunPipelined(ctx, s.eng.Containers(), newest.recipe(),
			restore.PipelineConfig{CacheContainers: cache, Policy: policy, Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	opt, lru := plan(restore.PolicyOPT), plan(restore.PolicyLRU)
	if opt.ContainerReads <= int64(cache) || opt.ContainerReads >= lru.ContainerReads {
		t.Fatalf("OPT-%d plans %d reads, LRU-%d %d: the recipe is not fragmented enough to tell them apart",
			cache, opt.ContainerReads, cache, lru.ContainerReads)
	}

	// Which planner each way of asking reaches: the default is forward
	// knowledge, a zero RestoreOptions and an explicit RestoreLRU are recency.
	lruOpts := DefaultRestoreOptions()
	lruOpts.Policy = RestoreLRU
	for _, tc := range []struct {
		name string
		opts RestoreOptions
		want restore.Stats
	}{
		{"DefaultRestoreOptions", DefaultRestoreOptions(), opt},
		{"zero RestoreOptions", RestoreOptions{}, lru},
		{"explicit RestoreLRU", lruOpts, lru},
		{"explicit RestoreOPT", RestoreOptions{Policy: RestoreOPT}, opt},
	} {
		got, err := s.RestoreWith(ctx, newest, nil, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.ContainerReads != tc.want.ContainerReads || got.ReadBytes != tc.want.ReadBytes {
			t.Errorf("%s: %d container reads of %d bytes, its plan has %d of %d (OPT %d, LRU %d)", tc.name,
				got.ContainerReads, got.ReadBytes, tc.want.ContainerReads, tc.want.ReadBytes, opt.ContainerReads, lru.ContainerReads)
		}
	}

	// (a)
	counts.ResetCounts()
	var out bytes.Buffer
	rs, err := s.Restore(ctx, newest, &out, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("restored stream differs")
	}
	if got := counts.DataSectionReads(); got != opt.ContainerReads || rs.ContainerReads != opt.ContainerReads {
		t.Fatalf("default restore: %d backend reads, stats say %d, the OPT-%d plan has %d (LRU-%d: %d)",
			got, rs.ContainerReads, cache, opt.ContainerReads, cache, lru.ContainerReads)
	}
	// (b) Pinned: this store and seed measure 1.22 (LRU: 1.73).
	if got := counts.DataBytesRead(); got != rs.ReadBytes {
		t.Fatalf("backend served %d bytes, RestoreStats.ReadBytes says %d", got, rs.ReadBytes)
	}
	const ampCeiling = 1.4
	amp := float64(rs.ReadBytes) / float64(rs.Bytes)
	t.Logf("%d reads (LRU %d) over %d distinct containers, read amplification %.2f (LRU %.2f)",
		rs.ContainerReads, lru.ContainerReads, newest.recipe().ContainersTouched(), amp, float64(lru.ReadBytes)/float64(lru.Bytes))
	if amp > ampCeiling {
		t.Fatalf("read amplification %.2f (%d bytes read for %d restored), ceiling %.1f", amp, rs.ReadBytes, rs.Bytes, ampCeiling)
	}
	// (c) A further restore of the warmed store, once with inline decode
	// (GOMAXPROCS 1: the pool is sized from it) — where a buffer is free the
	// moment its section is evicted, so the set is never found empty: the
	// cache's buffers, the section taken but not yet installed and the one
	// read ahead — and once with a pool of two, where its lag decides how
	// many reads find the set empty and get a buffer of their own. The set itself, one
	// container's capacity per buffer, is the allowance; what is allocated
	// beyond it is held to 0.25 B per restored byte (a buffer per fetch, the
	// parent's way, is the read amplification: 1.22 here).
	if raceEnabled {
		return // the race detector's shadow allocations are not the restore's
	}
	dataCap := uint64(s.eng.Containers().Config().DataCap)
	opts := DefaultRestoreOptions()
	opts.Verify = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name    string
		procs   int
		buffers int
		limit   float64
	}{
		{"inline decode", 1, cache + 2, 0.02},
		{"two decode workers", 2, cache + 4, 0.25},
	} {
		runtime.GOMAXPROCS(tc.procs)
		// TotalAlloc is the process's: whatever else allocates meanwhile only
		// adds, so the least of three restores is the restore's own.
		alloc := math.Inf(1)
		for try := 0; try < 3; try++ {
			out.Reset()
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if _, err := s.RestoreWith(ctx, newest, &out, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			alloc = min(alloc, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		allowance := float64(uint64(tc.buffers) * dataCap)
		t.Logf("%s: allocated %.0f bytes (its %d buffers are %.0f of them) for %d restored", tc.name, alloc, tc.buffers, allowance, rs.Bytes)
		if beyond := (alloc - allowance) / float64(rs.Bytes); beyond > tc.limit {
			t.Errorf("%s: allocated %.0f bytes, %.3f B per restored byte beyond its %d-buffer set (limit %.2f)",
				tc.name, alloc, beyond, tc.buffers, tc.limit)
		}
	}
}

// holderSpy is a WrapBackend wrapper of the kind the contract must work
// through: it forwards ctx and slices. It keeps every section the backend
// returned, keyed by array, with the holder (a ctx value the test's streams
// set) it was returned to. A lent buffer may come back any number of times to
// the restore that owns it; it must never reach a second holder, and a read
// nobody lent for must always be a new array.
type holderSpy struct {
	blockstore.Backend
	t  *testing.T
	mu sync.Mutex
	by map[*byte]any
	// shared is set while the store's shared data cache is attached: then
	// every section belongs to everybody and none may be a reused buffer.
	shared bool
	// failRead, when > 0, counts down: the read that takes it to zero comes
	// back as a private copy with a flipped bit in every 512 bytes, so that
	// whichever of its chunks the restore wants is wrong.
	failRead int
}

type holderKey struct{}

func (h *holderSpy) note(ctx context.Context, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	holder := ctx.Value(holderKey{})
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failRead > 0 {
		if h.failRead--; h.failRead == 0 {
			data = append([]byte(nil), data...)
			for i := 0; i < len(data); i += 512 {
				data[i] ^= 1
			}
		}
	}
	if prev, seen := h.by[&data[0]]; seen {
		switch {
		case h.shared:
			h.t.Errorf("a section loaded for the shared cache came back in a buffer used before")
		case holder == nil || prev != holder:
			h.t.Errorf("a section buffer of holder %v was handed to holder %v", prev, holder)
		}
	}
	h.by[&data[0]] = holder
	return data
}

func (h *holderSpy) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	data, err := h.Backend.ReadData(ctx, id)
	if err != nil {
		return nil, err
	}
	return h.note(ctx, data), nil
}

func (h *holderSpy) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	out, err := h.Backend.ReadDataRange(ctx, ids)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = h.note(ctx, out[i])
	}
	return out, nil
}

func (h *holderSpy) Drop(ctx context.Context, ids []uint32, reason string) error {
	return h.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

// TestFileRestoreReuseSafety runs what can go wrong with reused sections all
// at once, under -race in CI: concurrent default restores of sibling
// generations off the file backend, with and without the shared data cache,
// while a maintenance epoch merges and drops containers beside them, some of
// the streams stopping early on a failing writer and one on a corrupted
// section. Every stream that completes is compared byte for byte, every
// section buffer stays with the one restore it was lent by (holderSpy), and
// no early stop disturbs its siblings.
func TestFileRestoreReuseSafety(t *testing.T) {
	for _, cacheBytes := range []int64{0, 24 << 20} {
		t.Run(fmt.Sprintf("RestoreCacheBytes=%d", cacheBytes), func(t *testing.T) {
			ctx := context.Background()
			spy := &holderSpy{t: t, by: map[*byte]any{}, shared: cacheBytes > 0}
			s, datas := churnedFileStore(t, Options{RestoreCacheBytes: cacheBytes,
				WrapBackend: func(be blockstore.Backend) blockstore.Backend {
					spy.Backend = be
					return spy
				}}, 7, 24, 7, 4)
			backups := s.Backups()
			// Leave the epoch something to merge while the restores run.
			if !s.Forget(backups[0].Label).Found {
				t.Fatal("forget: not found")
			}
			backups, datas = backups[1:], datas[1:]

			errWriter := errors.New("client went away")
			var wg sync.WaitGroup
			stream := func(holder string, i int, mode string) {
				defer wg.Done()
				hctx := context.WithValue(ctx, holderKey{}, holder)
				for round := 0; round < 2; round++ {
					var out bytes.Buffer
					out.Grow(len(datas[i]))
					var w io.Writer = &out
					if mode == "writer fails" {
						w = &limitWriter{w: &out, left: int64(len(datas[i]) / 3), err: errWriter}
					}
					_, err := s.Restore(hctx, backups[i], w, true)
					switch {
					case mode == "writer fails":
						if !errors.Is(err, errWriter) {
							t.Errorf("%s: %v, want the writer's error", holder, err)
						}
						if !bytes.Equal(out.Bytes(), datas[i][:out.Len()]) {
							t.Errorf("%s: the bytes written before the writer failed differ", holder)
						}
					case err != nil:
						t.Errorf("%s: %v", holder, err)
					case !bytes.Equal(out.Bytes(), datas[i]):
						t.Errorf("%s: restored stream differs", holder)
					}
				}
			}
			for i := range backups {
				for k, mode := range []string{"whole", "writer fails"} {
					wg.Add(1)
					go stream(fmt.Sprintf("%s#%d", backups[i].Label, k), i, mode)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					if _, err := s.MaintenanceEpoch(ctx); err != nil {
						t.Errorf("maintenance epoch: %v", err)
					}
				}
			}()
			wg.Wait()

			// A corrupted section mid-stream: that restore fails on the
			// fingerprint, and the same backup restores whole right after.
			newest := len(backups) - 1
			spy.mu.Lock()
			spy.failRead = 3
			spy.mu.Unlock()
			s.SetRestoreCacheBudget(cacheBytes) // drop residency so the read happens
			hctx := context.WithValue(ctx, holderKey{}, "corrupted")
			if _, err := s.Restore(hctx, backups[newest], io.Discard, true); err == nil {
				t.Fatal("a restore over a corrupted section succeeded")
			}
			s.SetRestoreCacheBudget(cacheBytes) // ...and so the bad copy is not served again
			var out bytes.Buffer
			if _, err := s.Restore(hctx, backups[newest], &out, true); err != nil || !bytes.Equal(out.Bytes(), datas[newest]) {
				t.Fatalf("restore after the corrupted one: %v", err)
			}
			if rep, err := s.Check(ctx, true); err != nil || !rep.OK() {
				t.Fatalf("check: %v %v", err, rep.Problems)
			}
		})
	}
}

// limitWriter passes `left` bytes through and then fails.
type limitWriter struct {
	w    io.Writer
	left int64
	err  error
}

func (l *limitWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > l.left {
		return 0, l.err
	}
	l.left -= int64(len(p))
	return l.w.Write(p)
}
