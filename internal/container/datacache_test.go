package container

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/chunk"
	"repro/internal/disk"
)

// acquire is a one-element AcquireRange: one container, loaded by load.
func acquire(ctx context.Context, c *DataCache, id uint32, load func() ([]byte, error)) ([]byte, func(), error) {
	out, release, err := c.AcquireRange(ctx, []uint32{id}, func() ([][]byte, error) {
		data, err := load()
		return [][]byte{data}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return out[0], release, nil
}

func TestDataCacheSingleFlight(t *testing.T) {
	c := NewDataCache(1 << 20)
	var loads atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	datas := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, release, err := acquire(context.Background(), c, 7, func() ([]byte, error) {
				loads.Add(1)
				<-gate // hold every other caller in the single-flight wait
				return []byte("container-seven"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			datas[i] = data
			release()
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1 (single-flight)", n)
	}
	for i, d := range datas {
		if !bytes.Equal(d, []byte("container-seven")) {
			t.Fatalf("caller %d got %q", i, d)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Waits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits+waits", st, callers-1)
	}
}

func TestDataCacheBudgetEviction(t *testing.T) {
	c := NewDataCache(256) // fits two 100-byte sections
	load := func(n byte) func() ([]byte, error) {
		return func() ([]byte, error) { return bytes.Repeat([]byte{n}, 100), nil }
	}
	for id := uint32(0); id < 3; id++ {
		_, release, err := acquire(context.Background(), c, id, load(byte(id)))
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 200 || st.Evictions != 1 {
		t.Fatalf("after 3 inserts under a 2-entry budget: %+v", st)
	}
	// Container 0 was the LRU victim: 1 and 2 still hit, re-acquiring 0 is a
	// miss (checked last — reloading 0 evicts the then-LRU entry 1).
	for _, tc := range []struct {
		id       uint32
		wantMiss bool
	}{{1, false}, {2, false}, {0, true}} {
		id, wantMiss := tc.id, tc.wantMiss
		before := c.Stats().Misses
		_, release, err := acquire(context.Background(), c, id, load(byte(id)))
		if err != nil {
			t.Fatal(err)
		}
		release()
		if gotMiss := c.Stats().Misses > before; gotMiss != wantMiss {
			t.Fatalf("container %d: miss=%v, want %v", id, gotMiss, wantMiss)
		}
	}
}

func TestDataCachePinnedEntriesSurviveBudget(t *testing.T) {
	c := NewDataCache(150)
	data0, release0, err := acquire(context.Background(), c, 0,
		func() ([]byte, error) { return bytes.Repeat([]byte{0xa}, 100), nil })
	if err != nil {
		t.Fatal(err)
	}
	// A second 100-byte load blows the budget, but container 0 is pinned:
	// bytes transiently exceed the budget instead of tearing out 0.
	_, release1, err := acquire(context.Background(), c, 1,
		func() ([]byte, error) { return bytes.Repeat([]byte{0xb}, 100), nil })
	if err != nil {
		t.Fatal(err)
	}
	release1()
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 100 {
		t.Fatalf("unpinned entry should have been evicted to fit: %+v", st)
	}
	if !bytes.Equal(data0, bytes.Repeat([]byte{0xa}, 100)) {
		t.Fatal("pinned bytes mutated")
	}
	hitsBefore := c.Stats().Hits
	if _, rel, err := acquire(context.Background(), c, 0, func() ([]byte, error) {
		return nil, errors.New("must not reload a pinned entry")
	}); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("pinned entry should hit")
	}
	release0()
}

func TestDataCacheLoadErrorRetries(t *testing.T) {
	c := NewDataCache(1 << 20)
	boom := errors.New("backend down")
	if _, _, err := acquire(context.Background(), c, 3,
		func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The failed entry must not poison the cache: the next acquire reloads.
	data, release, err := acquire(context.Background(), c, 3,
		func() ([]byte, error) { return []byte("recovered"), nil })
	if err != nil {
		t.Fatal(err)
	}
	release()
	if string(data) != "recovered" {
		t.Fatalf("data = %q", data)
	}
}

// TestDataCacheLoadPanicDoesNotWedge pins the single-flight unwedging
// contract: a loader that panics must fail the entry (waiters get an error,
// the next acquisition retries) instead of leaving `ready` forever un-closed
// with every future Acquire of that id blocked on a dead loader.
func TestDataCacheLoadPanicDoesNotWedge(t *testing.T) {
	c := NewDataCache(1 << 20)
	inLoad := make(chan struct{})
	proceed := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		acquire(context.Background(), c, 9, func() ([]byte, error) {
			close(inLoad)
			<-proceed
			panic("loader exploded")
		})
	}()
	<-inLoad
	// A single-flight waiter blocked on the doomed load must be failed, not
	// stranded.
	waiter := make(chan error, 1)
	go func() {
		_, _, err := acquire(context.Background(), c, 9, func() ([]byte, error) {
			return nil, errors.New("single-flight violated: second load ran during first")
		})
		waiter <- err
	}()
	for c.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	if r := <-panicked; r == nil {
		t.Fatal("loader panic did not propagate to the loading caller")
	}
	if err := <-waiter; !errors.Is(err, errLoadPanic) {
		t.Fatalf("waiter err = %v, want errLoadPanic", err)
	}
	// The failed entry must not poison the id: a fresh acquisition reloads.
	data, release, err := acquire(context.Background(), c, 9,
		func() ([]byte, error) { return []byte("recovered"), nil })
	if err != nil {
		t.Fatal(err)
	}
	release()
	if string(data) != "recovered" {
		t.Fatalf("data = %q", data)
	}
}

// Range flavour of the panic guard: a panicking extent load must fail every
// owned slot so later acquisitions of those containers retry cleanly.
func TestDataCacheRangeLoadPanicDoesNotWedge(t *testing.T) {
	c := NewDataCache(1 << 20)
	ids := []uint32{1, 2}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("range loader panic did not propagate")
			}
		}()
		c.AcquireRange(context.Background(), ids, func() ([][]byte, error) {
			panic("range loader exploded")
		})
	}()
	out, release, err := c.AcquireRange(context.Background(), ids, func() ([][]byte, error) {
		return [][]byte{[]byte("one"), []byte("two")}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(out[0]) != "one" || string(out[1]) != "two" {
		t.Fatalf("out = %q", out)
	}
	release()
}

// TestDataCacheReadyBeatsCancelledContext pins the wait-path select order:
// when an entry's data is already loaded, acquisition must deliver it even
// under an already-cancelled context — a two-way select would pick between
// ready and ctx.Done() at random and fail spuriously about half the time.
func TestDataCacheReadyBeatsCancelledContext(t *testing.T) {
	c := NewDataCache(1 << 20)
	for id, content := range map[uint32]string{5: "five", 6: "six", 7: "seven"} {
		content := content
		_, release, err := acquire(context.Background(), c, id,
			func() ([]byte, error) { return []byte(content), nil })
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Many iterations so a regression to the random two-way select cannot
	// sneak through by luck.
	for i := 0; i < 100; i++ {
		data, release, err := acquire(ctx, c, 5, func() ([]byte, error) {
			return nil, errors.New("must not reload a resident entry")
		})
		if err != nil {
			t.Fatalf("iteration %d: err = %v despite resident data", i, err)
		}
		if string(data) != "five" {
			t.Fatalf("data = %q", data)
		}
		release()
		out, release2, err := c.AcquireRange(ctx, []uint32{6, 7}, func() ([][]byte, error) {
			return nil, errors.New("must not reload resident entries")
		})
		if err != nil {
			t.Fatalf("iteration %d: range err = %v despite resident data", i, err)
		}
		if string(out[0]) != "six" || string(out[1]) != "seven" {
			t.Fatalf("range out = %q", out)
		}
		release2()
	}
}

func TestDataCacheAcquireRangeSingleLoad(t *testing.T) {
	c := NewDataCache(1 << 20)
	ids := []uint32{4, 5, 6}
	var loads atomic.Int64
	load := func() ([][]byte, error) {
		loads.Add(1)
		return [][]byte{[]byte("four"), []byte("five"), []byte("six")}, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, release, err := c.AcquireRange(context.Background(), ids, load)
			if err != nil {
				t.Error(err)
				return
			}
			if string(out[0]) != "four" || string(out[1]) != "five" || string(out[2]) != "six" {
				t.Errorf("out = %q", out)
			}
			release()
		}()
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("range loaded %d times across %d concurrent callers, want 1", n, callers)
	}
}

// buildSealed writes n containers of one chunk each through a store backed
// by a Counting sim backend and returns the store, the counter, and the
// written locations.
func buildSealed(t *testing.T, n int) (*Store, *blockstore.Counting, []chunk.Location) {
	t.Helper()
	var clk disk.Clock
	dev := disk.NewDevice(disk.DefaultModel(), &clk, true)
	be := blockstore.NewCounting(blockstore.NewSim(true))
	s, err := NewStoreWithBackend(dev, Config{DataCap: 64, MaxChunks: 4}, be)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]chunk.Location, n)
	for i := 0; i < n; i++ {
		locs[i] = mustWrite(s, chunk.New([]byte(fmt.Sprintf("chunk-%02d-padding-to-force-seal-%02d", i, i))), uint64(i))
		if err := s.SerialWriter().Finish(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return s, be, locs
}

func TestStoreSharedCacheSingleBackendRead(t *testing.T) {
	s, be, locs := buildSealed(t, 4)
	s.SetDataCache(64 << 20)
	be.ResetCounts()

	ctx := context.Background()
	const rounds = 5
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, loc := range locs {
				datas, err := s.ReadDataRange(ctx, []uint32{loc.Container})
				if err != nil {
					t.Error(err)
					return
				}
				data := datas[0]
				want := []byte(fmt.Sprintf("chunk-%02d-padding-to-force-seal-%02d", i, i))
				if !bytes.Equal(s.Extract(data, loc), want) {
					t.Errorf("container %d: wrong bytes", loc.Container)
				}
			}
		}()
	}
	wg.Wait()
	if got := be.DataSectionReads(); got != int64(len(locs)) {
		t.Fatalf("backend data reads = %d across %d concurrent rounds, want %d (one per container)",
			got, rounds, len(locs))
	}
	st := s.DataCache().Stats()
	if st.Hits+st.Waits == 0 || st.Misses != uint64(len(locs)) {
		t.Fatalf("cache stats = %+v", st)
	}
}

// TestDataCacheDoesNotChangeSimulatedTime pins the tentpole's determinism
// contract at the container layer: the shared cache holds bytes only, so an
// identical read sequence charges identical simulated time and device stats
// with the cache attached, detached, or of any budget.
func TestDataCacheDoesNotChangeSimulatedTime(t *testing.T) {
	run := func(budget int64) (int64, disk.Stats) {
		var clk disk.Clock
		dev := disk.NewDevice(disk.DefaultModel(), &clk, true)
		s, err := NewStore(dev, Config{DataCap: 64, MaxChunks: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			mustWrite(s, chunk.New([]byte(fmt.Sprintf("chunk-%02d-padding-to-force-seal-%02d", i, i))), uint64(i))
			if err := s.SerialWriter().Finish(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		s.SetDataCache(budget)
		ctx := context.Background()
		for _, id := range []uint32{0, 1, 2, 1, 0, 5, 4, 4, 3, 0} {
			if _, err := s.ReadDataRange(ctx, []uint32{id}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.ReadDataRange(ctx, []uint32{2, 3}); err != nil {
			t.Fatal(err)
		}
		return int64(clk.Now()), dev.Stats()
	}
	baseTime, baseStats := run(0) // no cache
	for _, budget := range []int64{1, 200, 1 << 20} {
		gotTime, gotStats := run(budget)
		if gotTime != baseTime || gotStats != baseStats {
			t.Fatalf("budget %d: time/stats %d/%+v differ from uncached %d/%+v",
				budget, gotTime, gotStats, baseTime, baseStats)
		}
	}
}

// TestLenderStopsAtTheSharedCache pins the fetch gateway's half of the
// lending contract (blockstore.Backend): straight to a file backend the
// reader's lender is asked, by container and fill, and the section comes back
// in its buffer packed, the ranges it named back to back; once the shared cache is
// attached — every stream sees the same section, whole — it is never asked,
// on any fetch path.
func TestLenderStopsAtTheSharedCache(t *testing.T) {
	file, err := blockstore.OpenFile(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var clk disk.Clock
	s, err := NewStoreWithBackend(disk.NewDevice(disk.DefaultModel(), &clk, true), Config{DataCap: 64, MaxChunks: 4}, file)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	for i := 0; i < 3; i++ {
		loc := mustWrite(s, chunk.New([]byte(fmt.Sprintf("chunk-%02d-padding-to-force-seal-%02d", i, i))), uint64(i))
		if err := s.SerialWriter().Finish(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, loc.Container)
	}

	buf := bytes.Repeat([]byte{0xA5}, 64)
	asked := 0
	ctx := blockstore.WithLender(context.Background(), func(id uint32, n int64) ([]byte, []blockstore.Range) {
		asked++
		if id != ids[0] || n != s.DataFill(id) {
			t.Errorf("lender asked for container %d, %d bytes; the fetch is of container %d, %d bytes", id, n, ids[0], s.DataFill(ids[0]))
		}
		return buf, []blockstore.Range{{Off: 6, Len: 2}}
	})
	datas, release, err := s.Fetch(ctx, ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	release()
	if asked != 1 || len(datas[0]) != 2 || &datas[0][0] != &buf[0] {
		t.Fatalf("uncached fetch: lender asked %d times, section of %d bytes in the lent buffer: %v", asked, len(datas[0]), &datas[0][0] == &buf[0])
	}
	if string(buf[:9]) != "00\xa5\xa5\xa5\xa5\xa5\xa5\xa5" {
		t.Fatalf("uncached ranged fetch read %q, want bytes 6 and 7 of the section packed at the buffer's head", buf[:9])
	}

	s.SetDataCache(1 << 20)
	asked = 0
	datas, release, err = s.Fetch(ctx, ids[:2])
	if err != nil {
		t.Fatal(err)
	}
	release()
	one, err := s.ReadDataRange(ctx, ids[2:])
	if err != nil {
		t.Fatal(err)
	}
	if asked != 0 {
		t.Fatalf("fetches through the shared cache asked the lender %d times", asked)
	}
	for i, d := range append(datas, one...) {
		if &d[0] == &buf[0] {
			t.Fatal("a section in the shared cache sits in a reader's lent buffer")
		}
		if whole, err := file.ReadData(context.Background(), ids[i]); err != nil || !bytes.Equal(d, whole) {
			t.Fatalf("a section in the shared cache is not the whole section (%v)", err)
		}
	}
}
