package repro

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

func randStream(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestParseEngineKind(t *testing.T) {
	cases := map[string]EngineKind{
		"defrag": DeFrag, "ddfs": DDFSLike, "ddfs-like": DDFSLike,
		"silo": SiLoLike, "silo-like": SiLoLike,
		"sparse": SparseIndex, "sparse-index": SparseIndex,
		"idedup": IDedup,
	}
	for s, want := range cases {
		got, err := ParseEngineKind(s)
		if err != nil || got != want {
			t.Errorf("ParseEngineKind(%q) = %v,%v", s, got, err)
		}
	}
	if _, err := ParseEngineKind("nope"); err == nil {
		t.Fatal("unknown engine must error")
	}
}

func TestEngineKindString(t *testing.T) {
	if DeFrag.String() != "defrag" || DDFSLike.String() != "ddfs-like" ||
		SiLoLike.String() != "silo-like" || SparseIndex.String() != "sparse-index" ||
		EngineKind(99).String() != "unknown" {
		t.Fatal("EngineKind.String")
	}
}

func TestOpenUnknownEngine(t *testing.T) {
	if _, err := Open(Options{Engine: EngineKind(99)}); err == nil {
		t.Fatal("unknown engine must error")
	}
}

func TestOpenDefaults(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() != "defrag" {
		t.Fatalf("default engine = %s", s.Engine())
	}
}

func eachEngine(t *testing.T, fn func(t *testing.T, kind EngineKind)) {
	for _, k := range []EngineKind{DeFrag, DDFSLike, SiLoLike, SparseIndex, IDedup} {
		t.Run(k.String(), func(t *testing.T) { fn(t, k) })
	}
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind EngineKind) {
		s, err := Open(Options{Engine: kind, StoreData: true, ExpectedBytes: 64 << 20, Alpha: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		data := randStream(3<<20, int64(kind)+1)
		b, err := s.Backup(context.Background(), "b0", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		rst, err := s.Restore(context.Background(), b, &out, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("restore differs from original")
		}
		if rst.Bytes != int64(len(data)) || rst.ThroughputMBps() <= 0 {
			t.Fatalf("restore stats: %+v", rst)
		}
	})
}

func TestDedupAcrossBackups(t *testing.T) {
	eachEngine(t, func(t *testing.T, kind EngineKind) {
		s, _ := Open(Options{Engine: kind, ExpectedBytes: 64 << 20, Alpha: 0.1})
		data := randStream(3<<20, 7)
		s.Backup(context.Background(), "b0", bytes.NewReader(data))
		b1, err := s.Backup(context.Background(), "b1", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if frac := float64(b1.Stats.DedupedBytes) / float64(b1.Stats.LogicalBytes); frac < 0.9 {
			t.Fatalf("identical re-backup deduped only %.0f%%", frac*100)
		}
		st := s.Stats()
		if st.CompressionRatio < 1.8 {
			t.Fatalf("compression ratio %.2f after duplicate backup", st.CompressionRatio)
		}
		if st.LogicalBytes != 2*int64(len(data)) {
			t.Fatalf("logical bytes %d", st.LogicalBytes)
		}
		if len(s.Backups()) != 2 {
			t.Fatal("backup registry")
		}
	})
}

func TestEfficiencyTracking(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, ExpectedBytes: 64 << 20, Alpha: 0.1, TrackEfficiency: true})
	data := randStream(2<<20, 9)
	s.Backup(context.Background(), "b0", bytes.NewReader(data))
	b1, _ := s.Backup(context.Background(), "b1", bytes.NewReader(data))
	if b1.Stats.OracleRedundantBytes != int64(len(data)) {
		t.Fatalf("oracle redundancy %d, want %d", b1.Stats.OracleRedundantBytes, len(data))
	}
	if b1.Stats.Efficiency() != 1 {
		t.Fatalf("fully duplicate backup efficiency = %v", b1.Stats.Efficiency())
	}
}

func TestVerifyWithoutStoreDataFails(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, ExpectedBytes: 16 << 20})
	b, err := s.Backup(context.Background(), "b0", bytes.NewReader(randStream(1<<20, 11)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Restore(context.Background(), b, nil, true); err == nil {
		t.Fatal("verify without StoreData must error")
	}
	if _, err := s.Restore(context.Background(), b, nil, false); err != nil {
		t.Fatalf("metadata-only restore should work: %v", err)
	}
}

func TestBackupAccessors(t *testing.T) {
	s, _ := Open(Options{Engine: DDFSLike, ExpectedBytes: 16 << 20})
	b, _ := s.Backup(context.Background(), "acc", bytes.NewReader(randStream(1<<20, 13)))
	if b.Chunks() == 0 || b.Fragments() == 0 {
		t.Fatalf("accessors: chunks=%d fragments=%d", b.Chunks(), b.Fragments())
	}
}

func TestSimulatedTimeAdvances(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, ExpectedBytes: 16 << 20})
	if s.SimulatedTime() == 0 {
		// Index layout writes at construction; time may be non-zero already.
		t.Log("store opened at time 0")
	}
	before := s.SimulatedTime()
	s.Backup(context.Background(), "t", bytes.NewReader(randStream(1<<20, 15)))
	if s.SimulatedTime() <= before {
		t.Fatal("backup must consume simulated time")
	}
}

func TestStatsOnEmptyStore(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, ExpectedBytes: 16 << 20})
	st := s.Stats()
	if st.LogicalBytes != 0 || st.StoredBytes != 0 || st.CompressionRatio != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	if st.Utilization != 1 {
		t.Fatal("empty utilization must be 1")
	}
}

func TestNegativeAlphaDefaultsToPaperValue(t *testing.T) {
	s, err := Open(Options{Engine: DeFrag, Alpha: -1, ExpectedBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_ = s // α = 0.1 internally; absence of validation error is the check
}

var _ io.Writer = (*bytes.Buffer)(nil)

func TestRestoreFAAMatchesLRURestore(t *testing.T) {
	s, _ := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20})
	data := randStream(3<<20, 71)
	b, err := s.Backup(context.Background(), "faa", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var lru, faa bytes.Buffer
	if _, err := s.Restore(context.Background(), b, &lru, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreWith(context.Background(), b, &faa, RestoreOptions{CacheContainers: 2, Policy: RestoreFAA, Verify: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lru.Bytes(), faa.Bytes()) || !bytes.Equal(faa.Bytes(), data) {
		t.Fatal("restore strategies disagree")
	}
}

// setProcs sets GOMAXPROCS, which sizes the ingest hashing and restore
// decode pools (inline at one), for the rest of the test. Never under
// t.Parallel.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestWorkersProduceIdenticalResults: a Store hashes on a pool of GOMAXPROCS
// workers, inline at one; the stats, fragments and recipe of a backup are the
// same either way.
func TestWorkersProduceIdenticalResults(t *testing.T) {
	run := func(procs int) *Backup {
		setProcs(t, procs)
		s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, ExpectedBytes: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		data := randStream(4<<20, 201)
		s.Backup(context.Background(), "w0", bytes.NewReader(data))
		b, err := s.Backup(context.Background(), "w1", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	for _, procs := range []int{2, 8} {
		parallel := run(procs)
		if serial.Stats != parallel.Stats || serial.Fragments() != parallel.Fragments() {
			t.Fatalf("procs=%d: parallel ingest diverged:\nserial   %+v (%d frags)\nparallel %+v (%d frags)",
				procs, serial.Stats, serial.Fragments(), parallel.Stats, parallel.Fragments())
		}
		if !slices.Equal(serial.recipe().Refs, parallel.recipe().Refs) {
			t.Fatalf("procs=%d: recipes not bit-identical", procs)
		}
	}
}

func TestRestoreWithOptionsRoundTrip(t *testing.T) {
	store, err := Open(Options{Engine: DDFSLike, StoreData: true, ExpectedBytes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("restore-with options round trip "), 4096)
	b, err := store.Backup(context.Background(), "b1", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []RestoreOptions{
		{Policy: RestoreLRU, Verify: true},
		{Policy: RestoreOPT, Verify: true},
		{Policy: RestoreOPT, Workers: 4, Coalesce: true, Verify: true},
		{Policy: RestoreFAA, Verify: true},
		{CacheContainers: 1, Policy: RestoreFAA, Workers: 4, Coalesce: true, Verify: true},
	} {
		var out bytes.Buffer
		st, err := store.RestoreWith(context.Background(), b, &out, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if !bytes.Equal(out.Bytes(), payload) {
			t.Fatalf("opts %+v: restored stream differs", opts)
		}
		if st.ExtentReads > st.ContainerReads {
			t.Fatalf("opts %+v: extents exceed container reads: %+v", opts, st)
		}
	}
}

// TestRestoreCacheCountersFollowThePlan: restore_cache_{hits,misses,evictions}_total
// move on the product path, by exactly what the restore's schedule says —
// every ref that fetched nothing, every fetch, and every section a fetch
// retired: one per fetch once the 8-container cache is full; under forward
// assembly whole windows at a time, so fewer than the fetches and more than
// none.
func TestRestoreCacheCountersFollowThePlan(t *testing.T) {
	ctx := context.Background()
	s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, ExpectedBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	wcfg := workload.DefaultConfig(11)
	wcfg.NumFiles = 24
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var newest *Backup
	for g := 0; g < 6; g++ {
		b := sched.Next()
		if newest, err = s.Backup(ctx, b.Label, b.Stream); err != nil {
			t.Fatal(err)
		}
	}
	counters := func() (hits, misses, evictions int64) {
		c := telemetry.Default().Snapshot().Counters
		return c["restore_cache_hits_total"], c["restore_cache_misses_total"], c["restore_cache_evictions_total"]
	}

	h0, m0, e0 := counters()
	rs, err := s.Restore(ctx, newest, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1, e1 := counters()
	cache := int64(DefaultRestoreOptions().CacheContainers)
	if rs.ContainerReads <= cache || rs.CacheHits == 0 {
		t.Fatalf("%d container reads, %d hits: the backup is not fragmented enough to evict", rs.ContainerReads, rs.CacheHits)
	}
	if h1-h0 != rs.CacheHits || m1-m0 != rs.ContainerReads || e1-e0 != rs.ContainerReads-cache {
		t.Errorf("default restore moved hits/misses/evictions by %d/%d/%d, its stats say %d/%d/%d",
			h1-h0, m1-m0, e1-e0, rs.CacheHits, rs.ContainerReads, rs.ContainerReads-cache)
	}

	rs, err = s.RestoreWith(ctx, newest, nil, RestoreOptions{CacheContainers: 2, Policy: RestoreFAA})
	if err != nil {
		t.Fatal(err)
	}
	h2, m2, e2 := counters()
	if h2-h1 != rs.CacheHits || m2-m1 != rs.ContainerReads || e2-e1 <= 0 || e2-e1 >= rs.ContainerReads {
		t.Errorf("FAA restore moved hits/misses/evictions by %d/%d/%d, its stats say %d hits, %d reads",
			h2-h1, m2-m1, e2-e1, rs.CacheHits, rs.ContainerReads)
	}
}

func TestParseRestorePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want RestorePolicy
	}{{"lru", RestoreLRU}, {"opt", RestoreOPT}, {"faa", RestoreFAA}} {
		got, err := ParseRestorePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseRestorePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseRestorePolicy("belady"); err == nil {
		t.Fatal("unknown policy must error")
	}
}
