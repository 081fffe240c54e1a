package container

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/disk"
)

// slowSealBackend wraps the sim backend so each Seal blocks until released,
// making the async-persist window arbitrarily wide for tests.
type slowSealBackend struct {
	blockstore.Backend
	mu      sync.Mutex
	gate    chan struct{} // non-nil: Seal blocks until closed
	sealErr error         // returned by Seal after the gate opens
	entered chan struct{} // non-nil: Seal sends on it, if there is room, as it begins
	seals   int
}

func (b *slowSealBackend) Seal(ctx context.Context, info blockstore.ContainerInfo, data []byte) error {
	b.mu.Lock()
	gate, err, entered := b.gate, b.sealErr, b.entered
	b.seals++
	b.mu.Unlock()
	select {
	case entered <- struct{}{}:
	default:
	}
	if gate != nil {
		<-gate
	}
	if err != nil {
		return err
	}
	return b.Backend.Seal(ctx, info, data)
}

func newSlowStore(t *testing.T) (*Store, *slowSealBackend) {
	t.Helper()
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, true)
	be := &slowSealBackend{Backend: blockstore.NewSim(true)}
	s, err := NewStoreWithBackend(dev, smallConfig(), be)
	if err != nil {
		t.Fatal(err)
	}
	return s, be
}

// TestAsyncSealReadBarrier: a data read issued while the container's persist
// is still in flight must block on the barrier and then see complete bytes,
// not race the backend write.
func TestAsyncSealReadBarrier(t *testing.T) {
	s, be := newSlowStore(t)
	gate := make(chan struct{})
	be.gate = gate

	data := bytes.Repeat([]byte{0xAB}, 300)
	loc := mustWrite(s, chunk.New(data), 1)
	w := s.SerialWriter()
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Directory is published immediately (dedup semantics), persist gated.
	if !s.Sealed(loc.Container) {
		t.Fatal("container not published at Flush return")
	}

	got := make(chan error, 1)
	go func() {
		buf, err := readChunk(context.Background(), s, loc)
		if err == nil && !bytes.Equal(buf, data) {
			err = errors.New("read tore the chunk")
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("read completed through the barrier (err=%v)", err)
	default:
	}
	close(gate)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncSealFailureUnpublishes: when the background persist fails, the
// container must drop out of the directory and the error must surface at the
// writer's next Flush/Finish — the stream aborts at most one container late.
func TestAsyncSealFailureUnpublishes(t *testing.T) {
	s, be := newSlowStore(t)
	sentinel := errors.New("backend exploded")
	be.sealErr = sentinel

	loc := mustWrite(s, chunk.New(bytes.Repeat([]byte{1}, 100)), 1)
	w := s.SerialWriter()
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := w.Finish(context.Background())
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("Finish err = %v, want the persist failure", err)
	}
	if s.Sealed(loc.Container) {
		t.Fatal("failed container still published")
	}
	if s.NumContainers() != 0 {
		t.Fatalf("NumContainers = %d after failed persist, want 0", s.NumContainers())
	}
}

// TestAsyncSealBarrierCtxCancel: a reader waiting on a gated persist must
// honor its context instead of hanging.
func TestAsyncSealBarrierCtxCancel(t *testing.T) {
	s, be := newSlowStore(t)
	gate := make(chan struct{})
	be.gate = gate
	defer close(gate)

	loc := mustWrite(s, chunk.New(bytes.Repeat([]byte{2}, 100)), 1)
	if err := s.SerialWriter().Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := readChunk(ctx, s, loc); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWaitSealsDrains: WaitSeals must block until every in-flight persist
// lands, and the backend must have seen them all.
func TestWaitSealsDrains(t *testing.T) {
	s, be := newSlowStore(t)
	gate := make(chan struct{})
	be.gate = gate

	// Stay under DataCap: a second fill would auto-flush and block on the
	// gated first persist (depth-1 pipelining), deadlocking the test.
	w := s.NewWriter(nil)
	for i := 0; i < 4; i++ {
		d := bytes.Repeat([]byte{byte(i)}, 200)
		if _, err := w.Write(context.Background(), chunk.New(d), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.WaitSeals()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitSeals returned with a gated persist in flight")
	default:
	}
	close(gate)
	<-done
	if err := w.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	be.mu.Lock()
	seals := be.seals
	be.mu.Unlock()
	if want := s.NumContainers(); seals != want {
		t.Fatalf("backend saw %d seals, directory has %d containers", seals, want)
	}
}

// TestConcurrentWritersFileBackend drives several reserve-mode writers over
// the durable file backend at once — exercising parallel data file writes
// plus the container log's group commit — then reopens the directory and verifies
// every chunk from a fresh store.
func TestConcurrentWritersFileBackend(t *testing.T) {
	dir := t.TempDir()
	be, err := blockstore.OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, true)
	s, err := NewStoreWithBackend(dev, smallConfig(), be)
	if err != nil {
		t.Fatal(err)
	}

	const streams = 4
	type written struct {
		loc  chunk.Location
		data []byte
	}
	results := make([][]written, streams)
	var wg sync.WaitGroup
	for st := 0; st < streams; st++ {
		wg.Add(1)
		go func(st int) {
			defer wg.Done()
			w := s.NewWriter(nil)
			for i := 0; i < 25; i++ {
				d := bytes.Repeat([]byte{byte(st*31 + i)}, 150+i)
				loc, err := w.Write(context.Background(), chunk.New(d), uint64(i))
				if err != nil {
					t.Error(err)
					return
				}
				results[st] = append(results[st], written{loc, d})
			}
			if err := w.Finish(context.Background()); err != nil {
				t.Error(err)
			}
		}(st)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for st := range results {
		for i, wr := range results[st] {
			got, err := readChunk(context.Background(), s, wr.loc)
			if err != nil {
				t.Fatalf("stream %d chunk %d: %v", st, i, err)
			}
			if !bytes.Equal(got, wr.data) {
				t.Fatalf("stream %d chunk %d: bytes differ", st, i)
			}
		}
	}
	s.WaitSeals()
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the container log's replay must reconstruct the full directory.
	be2, err := blockstore.OpenFile(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var clk2 disk.Clock
	dev2 := disk.NewDevice(disk.DefaultModel(), &clk2, true)
	s2, err := NewStoreWithBackend(dev2, smallConfig(), be2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Adopt(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := s2.NumContainers(), s.NumContainers(); got != want {
		t.Fatalf("reopened store has %d containers, want %d", got, want)
	}
	for st := range results {
		for i, wr := range results[st] {
			got, err := readChunk(context.Background(), s2, wr.loc)
			if err != nil {
				t.Fatalf("reopened stream %d chunk %d: %v", st, i, err)
			}
			if !bytes.Equal(got, wr.data) {
				t.Fatalf("reopened stream %d chunk %d: bytes differ", st, i)
			}
		}
	}
	s2.WaitSeals()
	if err := be2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFillBuffersBelongToStore: a stream cycles two DataCap-sized fill
// buffers and Write never grows one; Finish hands them back and the store
// keeps one, which the next writer's first container fills instead of
// allocating — also when the stream ended in a failed persist, or never
// wrote a byte.
func TestFillBuffersBelongToStore(t *testing.T) {
	s, be := newSlowStore(t)
	ctx := context.Background()
	chunkOf := func(i int) chunk.Chunk { return chunk.New(bytes.Repeat([]byte{byte(i)}, 300)) }
	// stream writes n containers' worth (three 300-byte chunks fill a
	// 1024-byte container) and returns the buffers it filled, in order of
	// first use.
	stream := func(w *Writer, n int) (used []*byte) {
		for i := 0; i < 3*n; i++ {
			if _, err := w.Write(ctx, chunkOf(i), 1); err != nil {
				t.Fatal(err)
			}
			if int64(cap(w.data)) != s.cfg.DataCap {
				t.Fatalf("fill buffer has capacity %d, want DataCap %d: Write grew or replaced it", cap(w.data), s.cfg.DataCap)
			}
			if b := &w.data[0]; len(used) == 0 || (b != used[0] && b != used[len(used)-1]) {
				used = append(used, b)
			}
		}
		return used
	}
	spare := func() *byte {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.spare == nil {
			return nil
		}
		if len(s.spare) != 0 || int64(cap(s.spare)) != s.cfg.DataCap {
			t.Fatalf("spare has len %d cap %d, want an empty DataCap buffer", len(s.spare), cap(s.spare))
		}
		return &s.spare[:1][0]
	}

	var kept *byte
	for round, n := range []int{5, 1, 0, 6} {
		w := s.NewWriter(nil)
		used := stream(w, n)
		if len(used) > 2 {
			t.Fatalf("round %d: one stream filled %d distinct buffers, want 2 (one filling, one persisting)", round, len(used))
		}
		if round > 0 && n > 0 && used[0] != kept {
			t.Fatalf("round %d: the writer's first container did not fill the store's spare", round)
		}
		if err := w.Finish(ctx); err != nil {
			t.Fatal(err)
		}
		if w.data != nil || w.spare != nil {
			t.Fatal("writer kept a fill buffer past Finish")
		}
		if kept = spare(); kept == nil {
			t.Fatalf("round %d: store kept no buffer after Finish", round)
		}
	}

	// A stream whose persist fails still hands its buffers back.
	be.mu.Lock()
	be.sealErr = errors.New("backend exploded")
	be.mu.Unlock()
	w := s.NewWriter(nil)
	if used := stream(w, 2); used[0] != kept {
		t.Fatal("the failing stream did not start in the store's spare")
	}
	if err := w.Finish(ctx); err == nil {
		t.Fatal("Finish swallowed the persist failure")
	}
	if w.data != nil || w.spare != nil || spare() == nil {
		t.Fatal("fill buffers not handed back after a failed stream")
	}
}

// TestAwaitSealedWaitsForOtherWriters: a recipe may name a container another
// writer still fills or persists. AwaitSealed returns once it is durable, and
// fails for one that never will be — its persist failed, or its writer gave
// it up with chunks placed — after OnLost was told of that one's entries.
func TestAwaitSealedWaitsForOtherWriters(t *testing.T) {
	ctx := context.Background()
	s, be := newSlowStore(t)
	lost := map[uint32]int{}
	s.OnLost(func(id uint32, entries []Meta) { lost[id] = len(entries) })
	refs := func(locs ...chunk.Location) []chunk.Ref {
		var out []chunk.Ref
		for _, l := range locs {
			out = append(out, chunk.Ref{Loc: l})
		}
		return out
	}
	returned := func(locs ...chunk.Location) chan error {
		done := make(chan error, 1)
		go func() { done <- s.AwaitSealed(ctx, refs(locs...)) }()
		return done
	}

	// Open, then persisting: AwaitSealed waits through both.
	gate := make(chan struct{})
	be.gate = gate
	w := s.NewWriter(nil)
	open, err := w.Write(ctx, chunk.New(bytes.Repeat([]byte{1}, 100)), 1)
	if err != nil {
		t.Fatal(err)
	}
	done := returned(open)
	if err := w.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("AwaitSealed returned %v while the container persisted", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("a container that persisted: %v", err)
	}

	// A persist that fails, and the container its writer then gives up.
	be.mu.Lock()
	be.gate, be.sealErr = nil, errors.New("backend exploded")
	be.mu.Unlock()
	failed, err := w.Write(ctx, chunk.New(bytes.Repeat([]byte{2}, 600)), 1)
	if err != nil {
		t.Fatal(err)
	}
	given, err := w.Write(ctx, chunk.New(bytes.Repeat([]byte{3}, 600)), 1) // flushes failed's container
	if err != nil {
		t.Fatal(err)
	}
	if err := <-returned(open, failed); err == nil {
		t.Fatal("AwaitSealed passed a container whose persist failed")
	}
	if err := w.Finish(ctx); err == nil {
		t.Fatal("Finish passed the failed persist")
	}
	if err := <-returned(given); err == nil {
		t.Fatal("AwaitSealed passed a container its writer gave up")
	}
	if lost[failed.Container] != 1 || lost[given.Container] != 1 || len(lost) != 2 {
		t.Fatalf("OnLost heard %v, want one entry each for containers %d and %d", lost, failed.Container, given.Container)
	}
}
