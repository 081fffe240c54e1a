package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// dispersedStream builds a stream whose duplicates all point far behind the
// write head: the bytes of `base` reordered at blockSize granularity with
// fresh unique blocks interleaved. Against a store that already holds many
// containers of newer history, its duplicates never cluster.
func dispersedCopy(base []byte, blockSize int, seed byte) []byte {
	var out bytes.Buffer
	nBlocks := len(base) / blockSize
	for i := 0; i < nBlocks; i++ {
		// Walk base blocks in a stride order so runs break up.
		j := (i*7 + 3) % nBlocks
		out.Write(base[j*blockSize : (j+1)*blockSize])
		if i%4 == 0 {
			fresh := make([]byte, blockSize)
			for k := range fresh {
				fresh[k] = byte(i*131+k*17) ^ seed
			}
			out.Write(fresh)
		}
	}
	return out.Bytes()
}

// TestFilterSpillRoundtripAndRededup is the end-to-end contract for the
// prioritized inline filter: a stream whose duplicates are dispersed is
// demoted to write-through (spill), still restores bit-identically, and the
// maintenance pass's out-of-line re-dedup later reclaims the duplicate
// bytes it wrote through — after which every stream still restores
// bit-identically and fsck stays clean.
func TestFilterSpillRoundtripAndRededup(t *testing.T) {
	s, err := Open(Options{
		Engine:        DeFrag,
		Alpha:         0.1,
		StoreData:     true,
		ExpectedBytes: 64 << 20,
		Filter:        FilterOptions{Enabled: true, Probation: 64, RecencyContainers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown

	ctx := context.Background()

	// Cold history: a few MiB of unique data, sealed into containers, so the
	// write head moves well past the base copy before the dispersed stream
	// arrives.
	cfg := workload.DefaultConfig(901)
	cfg.NumFiles = 8
	cfg.MeanFileSize = 256 << 10
	sched, err := workload.NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := io.ReadAll(sched.Next().Stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Backup(ctx, "base", bytes.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	// Push the head forward with unrelated unique history.
	for i := 0; i < 3; i++ {
		filler, err := io.ReadAll(sched.Next().Stream)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Backup(ctx, fmt.Sprintf("fill%d", i), bytes.NewReader(filler)); err != nil {
			t.Fatal(err)
		}
	}

	spilly := dispersedCopy(base, 32<<10, 0xA5)
	b, err := s.Backup(ctx, "dispersed", bytes.NewReader(spilly))
	if err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.SpilledStreams == 0 || st.SpilledBytes == 0 {
		t.Fatalf("dispersed stream was not spilled: %+v", st)
	}

	var buf bytes.Buffer
	if _, err := s.Restore(ctx, b, &buf, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), spilly) {
		t.Fatal("spilled stream restored with different bytes")
	}

	// Out-of-line re-dedup must reclaim at least part of what was written
	// through.
	var rededuped int64
	for i := 0; i < 8; i++ {
		ms, err := s.MaintenanceEpoch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rededuped += ms.RefsRededuped
		if ms.RefsRededuped == 0 && ms.RefsRemapped == 0 && ms.ContainersMerged == 0 {
			break
		}
	}
	if rededuped == 0 {
		t.Fatal("maintenance re-dedup reclaimed no spilled refs")
	}

	// The remapped stream must still restore bit-identically.
	buf.Reset()
	if _, err := s.Restore(ctx, b, &buf, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), spilly) {
		t.Fatal("re-deduped stream restored with different bytes")
	}
	rep, err := s.Check(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after re-dedup: %v", rep.Problems)
	}
}

// TestFilterIngestsPrimaryFasterAtEqualDedup is what the prioritized inline
// filter is for, as a paired comparison on the simulated clock (the retired
// cross-scenario ablation, EXPERIMENTS.md "Retired harnesses"): the same
// seeded primary-storage streams go into a filter-on and a filter-off DeFrag
// store. The filter must spill, must not make ingest slower, and once
// maintenance has re-deduplicated the spill must have cost no live dedup:
// logical bytes over stored-minus-dead bytes, both stores merged at the same
// aggressive threshold so neither is credited for garbage the other still
// holds. Every stream restores bit-identical from both.
func TestFilterIngestsPrimaryFasterAtEqualDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 2 x 64 MiB")
	}
	const users, rounds, perStream = 4, 4, 4 << 20
	ctx := context.Background()
	type side struct {
		store  *Store
		ingest time.Duration // simulated
		datas  [][]byte
	}
	run := func(filter FilterOptions) *side {
		t.Helper()
		s, err := Open(Options{Engine: DeFrag, StoreData: true, ExpectedBytes: users * rounds * perStream * 2,
			Filter: filter, Maintenance: MaintenanceOptions{UtilThreshold: 0.85}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
		sched, err := workload.NewScenario(workload.ScenarioPrimary,
			workload.ScenarioParams{Seed: 42, Users: users, BytesPerStream: perStream})
		if err != nil {
			t.Fatal(err)
		}
		sd := &side{store: s}
		for i := 0; i < users*rounds; i++ {
			bk := sched.Next()
			data, err := io.ReadAll(bk.Stream)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Backup(ctx, bk.Label, bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			sd.ingest += b.Stats.Duration
			sd.datas = append(sd.datas, data)
		}
		return sd
	}
	baseline, filtered := run(FilterOptions{}), run(FilterOptions{Enabled: true})

	if st := filtered.store.Stats(); st.SpilledStreams == 0 || st.SpilledBytes == 0 {
		t.Fatalf("the filter never spilled on the primary workload: %+v", st)
	}
	if filtered.ingest > baseline.ingest {
		t.Errorf("filter-on ingest took %v simulated, filter-off %v", filtered.ingest, baseline.ingest)
	}

	var rededuped int64
	for _, sd := range []*side{baseline, filtered} {
		for i := 0; i < 8; i++ {
			ms, err := sd.store.MaintenanceEpoch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if sd == filtered {
				rededuped += ms.RefsRededuped
			}
			if ms.RefsRededuped == 0 && ms.RefsRemapped == 0 && ms.ContainersMerged == 0 {
				break
			}
		}
	}
	if rededuped == 0 {
		t.Error("eight epochs re-deduplicated none of the spill")
	}
	liveRatio := func(s *Store) float64 {
		rep := s.MaintenanceReport()
		return float64(s.Stats().LogicalBytes) / float64(rep.StoredBytes-rep.DeadBytes)
	}
	if f, b := liveRatio(filtered.store), liveRatio(baseline.store); f < 0.999*b {
		t.Errorf("live dedup ratio with the filter %.4f, without %.4f", f, b)
	}
	for _, sd := range []*side{baseline, filtered} {
		restoreVerifyAll(t, sd.store, sd.datas)
		rep, err := sd.store.Check(ctx, true)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("fsck after the epochs: %v", rep.Problems)
		}
	}
}

// TestFilterMaintenanceRace hammers maintenance epochs against a live
// primary-scenario ingest with the filter enabled — the exact concurrency
// the out-of-line re-dedup path runs under in production. Run with -race;
// correctness here is "no data race, every stream restores bit-identically,
// fsck clean", not any particular dedup outcome.
func TestFilterMaintenanceRace(t *testing.T) {
	s, err := Open(Options{
		Engine:        DeFrag,
		Alpha:         0.1,
		StoreData:     true,
		ExpectedBytes: 64 << 20,
		Filter:        FilterOptions{Enabled: true, Probation: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown

	ctx := context.Background()
	const tenants = 2
	const rounds = 3

	type stream struct {
		label string
		data  []byte
	}
	var (
		mu       sync.Mutex
		ingested []stream
	)

	done := make(chan struct{})
	var maintErr error
	var maintWG sync.WaitGroup
	maintWG.Add(1)
	go func() {
		defer maintWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.MaintenanceEpoch(ctx); err != nil {
				maintErr = err
				return
			}
		}
	}()

	var ingestWG sync.WaitGroup
	errs := make(chan error, tenants)
	for tn := 0; tn < tenants; tn++ {
		ingestWG.Add(1)
		go func(tn int) {
			defer ingestWG.Done()
			sched, err := workload.NewScenario(workload.ScenarioPrimary, workload.ScenarioParams{
				Seed:           int64(70 + tn),
				Users:          2,
				BytesPerStream: 512 << 10,
			})
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds*2; r++ { // 2 volumes per round per tenant
				bk := sched.Next()
				data, err := io.ReadAll(bk.Stream)
				if err != nil {
					errs <- err
					return
				}
				label := fmt.Sprintf("t%d/%s", tn, bk.Label)
				if _, err := s.IngestStream(ctx, label, bytes.NewReader(data)); err != nil {
					errs <- fmt.Errorf("%s: %w", label, err)
					return
				}
				mu.Lock()
				ingested = append(ingested, stream{label, data})
				mu.Unlock()
			}
			errs <- nil
		}(tn)
	}
	ingestWG.Wait()
	close(done)
	maintWG.Wait()
	if maintErr != nil {
		t.Fatalf("maintenance during live ingest: %v", maintErr)
	}
	for tn := 0; tn < tenants; tn++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// One more epoch after quiesce, then verify everything.
	if _, err := s.MaintenanceEpoch(ctx); err != nil {
		t.Fatal(err)
	}
	for _, st := range ingested {
		b := s.FindBackup(st.label)
		if b == nil {
			t.Fatalf("stream %s not retained", st.label)
		}
		var buf bytes.Buffer
		if _, err := s.Restore(ctx, b, &buf, true); err != nil {
			t.Fatalf("restore %s: %v", st.label, err)
		}
		if !bytes.Equal(buf.Bytes(), st.data) {
			t.Fatalf("stream %s diverged after concurrent maintenance", st.label)
		}
	}
	rep, err := s.Check(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck after concurrent maintenance: %v", rep.Problems)
	}
}
