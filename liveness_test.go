package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestForgetReclaimsWhatOnlyItHeld: a chunk that only a forgotten backup
// referenced is dead, though the index still names it. Forget says so, and
// a Compact and an epoch take its containers away, on either backend.
func TestForgetReclaimsWhatOnlyItHeld(t *testing.T) {
	for _, backend := range []BackendKind{SimBackend, FileBackend} {
		t.Run(backend.String(), func(t *testing.T) {
			ctx := context.Background()
			opts := Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 64 << 20, Backend: backend}
			if backend == FileBackend {
				opts.Dir = t.TempDir()
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			kept := randStream(2<<20, 1)
			if _, err := s.Backup(ctx, "kept", bytes.NewReader(kept)); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Backup(ctx, "gone", bytes.NewReader(randStream(6<<20, 2))); err != nil {
				t.Fatal(err)
			}
			res := s.Forget("gone")
			if !res.Found || res.DeadBytes < 6<<20-6<<20/100 || res.DeadBytes > 6<<20+6<<20/100 {
				t.Fatalf("forget: %+v, want about 6 MiB dead", res)
			}
			if _, err := s.Compact(ctx, 1.0); err != nil {
				t.Fatal(err)
			}
			if _, err := s.MaintenanceEpoch(ctx); err != nil {
				t.Fatal(err)
			}
			dataCap := s.eng.Containers().Config().DataCap
			if stored := s.Stats().StoredBytes; stored > 2<<20+dataCap {
				t.Fatalf("%d bytes stored after the reclaim, want at most 2 MiB plus one container (%d)", stored, dataCap)
			}
			restoreVerifyAll(t, s, [][]byte{kept})
			checkClean(t, s)
		})
	}
}

// checkClean fails t unless Check, counts against the walk included, is.
func checkClean(t *testing.T, s *Store) {
	t.Helper()
	rep, err := s.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("check: %v", rep.Problems)
	}
}

// opRand is a seeded ChaCha20 stream of choices: a failing seed replays.
type opRand struct {
	d   *workload.DetRand
	off int64
}

func (r *opRand) intn(n int) int {
	var b [8]byte
	r.d.FillAt(b[:], r.off)
	r.off += 8
	return int(binary.LittleEndian.Uint64(b[:]) % uint64(n))
}

// blockBackup returns a backup of 4 to 11 blocks of 64 KiB, each drawn from a
// pool that grows as backups come, so that backups share some of their bytes
// with earlier ones, forgotten or not, and bring some of their own.
func blockBackup(r *opRand, pool *int) []byte {
	var data []byte
	for range 4 + r.intn(8) {
		i := r.intn(*pool + 2)
		if i >= *pool {
			i = *pool
			*pool++
		}
		data = append(data, randStream(64<<10, int64(1000+i))...)
	}
	return data
}

// TestCountsEqualTheWalk runs a seeded sequence of backups, duplicate-label
// backups, forgets, epochs, Compacts and, on the durable store, reopens, and
// after every step holds the store to Check (the live table's counts against
// a walk of the retained recipes among it) and every retained backup to a
// bit-identical restore.
func TestCountsEqualTheWalk(t *testing.T) {
	for _, backend := range []string{"sim", "memfs"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", backend, seed), func(t *testing.T) {
				countsEqualTheWalk(t, backend, seed)
			})
		}
	}
}

func countsEqualTheWalk(t *testing.T, backend string, seed int64) {
	ctx := context.Background()
	opts := crashOptions(newMemFS(newImage(), false))
	if backend == "sim" {
		opts.Backend, opts.Dir, opts.fs = SimBackend, "", nil
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	r := &opRand{d: workload.NewDetRand(seed, "liveness-ops")}
	want := map[string][]byte{}
	var order []string // retained labels, oldest first
	pool, next := 0, 0
	merged, reopened := 0, 0
	for step := range 40 {
		var op string
		switch k := r.intn(10); {
		case k < 4 || len(order) == 0:
			op = "backup"
			label := fmt.Sprintf("b%02d", next)
			next++
			data := blockBackup(r, &pool)
			if _, err := s.Backup(ctx, label, bytes.NewReader(data)); err != nil {
				t.Fatalf("step %d: backup: %v", step, err)
			}
			want[label] = data
			order = append(order, label)
		case k == 4:
			op = "duplicate-label backup"
			label := order[r.intn(len(order))]
			if _, err := s.Backup(ctx, label, bytes.NewReader(blockBackup(r, &pool))); !errors.Is(err, ErrLabelRetained) {
				t.Fatalf("step %d: a backup under retained label %s returned %v", step, label, err)
			}
		case k == 5 || k == 6:
			op = "forget"
			i := r.intn(len(order))
			if res := s.Forget(order[i]); !res.Found || res.Error != "" {
				t.Fatalf("step %d: forget %s: %+v", step, order[i], res)
			}
			delete(want, order[i])
			order = append(order[:i], order[i+1:]...)
		case k == 7:
			op = "epoch"
			st, err := s.MaintenanceEpoch(ctx)
			if err != nil {
				t.Fatalf("step %d: epoch: %v", step, err)
			}
			merged += st.ContainersMerged
		case k == 8:
			op = "compact"
			st, err := s.Compact(ctx, []float64{0.5, 0.9, 1}[r.intn(3)])
			if err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			merged += st.ContainersCollected
		default:
			op = "close-reopen"
			if backend == "sim" {
				continue
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(opts); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			reopened++
		}
		rep, err := s.Check(ctx, true)
		if err != nil || !rep.OK() {
			t.Fatalf("step %d (%s): check: %v %v", step, op, err, rep.Problems)
		}
		var datas [][]byte
		for _, label := range order {
			datas = append(datas, want[label])
		}
		restoreVerifyAll(t, s, datas)
	}
	if merged == 0 || (backend != "sim" && reopened == 0) {
		t.Fatalf("the sequence merged %d containers and reopened %d times: it tests too little", merged, reopened)
	}
}

// TestCountsUnderLiveTraffic ingests streams in a loop beside Forget and
// maintenance epochs: every acknowledged backup that is still retained
// restores, and once traffic stops the counts equal the walk. Run it with
// -race.
func TestCountsUnderLiveTraffic(t *testing.T) {
	ctx := context.Background()
	opts := crashOptions(nil)
	opts.Backend, opts.Dir, opts.fs = SimBackend, "", nil
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		mu    sync.Mutex
		want  = map[string][]byte{}
		order []string
	)
	const streams = 24
	done := make(chan struct{})
	merged := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		r := &opRand{d: workload.NewDetRand(7, "live-traffic")}
		pool := 0
		for i := range streams {
			label := fmt.Sprintf("t%02d", i)
			data := blockBackup(r, &pool)
			if _, err := s.IngestStream(ctx, label, bytes.NewReader(data)); err != nil {
				t.Errorf("ingest %s: %v", label, err)
				return
			}
			mu.Lock()
			want[label] = data
			order = append(order, label)
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			var oldest string
			if len(order) > 3 {
				oldest, order = order[0], order[1:]
				delete(want, oldest)
			}
			mu.Unlock()
			if oldest != "" && !s.Forget(oldest).Found {
				t.Errorf("forget %s: not retained", oldest)
			}
			st, err := s.MaintenanceEpoch(ctx)
			if err != nil {
				t.Errorf("epoch: %v", err)
				return
			}
			merged += st.ContainersMerged
		}
	}()
	wg.Wait()
	var datas [][]byte
	for _, label := range order {
		datas = append(datas, want[label])
	}
	restoreVerifyAll(t, s, datas)
	checkClean(t, s)
	if merged == 0 {
		t.Fatal("no epoch merged anything beside the ingests: the test tests too little")
	}
}
