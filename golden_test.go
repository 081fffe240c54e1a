package repro

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

// goldenTranscript pins the exact simulated measurements of a fixed scenario
// as they were captured immediately before physical I/O moved behind the
// blockstore.Backend interface. The sim backend must be bit-identical to the
// old in-memory container store: any drift in timing, dedup decisions,
// placement, or restore behavior surfaces as a diff here. The restore dur=
// values are one read lane's: they were re-taken when the simulated parallel
// read lanes went, and every other field of those lines stayed as it was.
const goldenTranscript = `defrag sd=true gen=0 dur=38780401 unique=7292991 deduped=0 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=2 chunks=782
defrag sd=true gen=1 dur=42085073 unique=1642012 deduped=7146768 rewritten=0 lookups=2 prefetch=2 cachehits=764 frags=9 chunks=935
defrag sd=true gen=2 dur=29107713 unique=107419 deduped=8525365 rewritten=139957 lookups=1 prefetch=1 cachehits=921 frags=14 chunks=935
defrag sd=true gen=3 dur=29165589 unique=145258 deduped=8536904 rewritten=111263 lookups=1 prefetch=1 cachehits=920 frags=20 chunks=936
defrag sd=true stored=9438900 containers=5 util=0.973385 simtime=144695256
defrag sd=true restore dur=43225747 creads=5 extents=4 hits=931 bytes=8793425
defrag sd=false gen=0 dur=38780401 unique=7292991 deduped=0 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=2 chunks=782
defrag sd=false gen=1 dur=42085073 unique=1642012 deduped=7146768 rewritten=0 lookups=2 prefetch=2 cachehits=764 frags=9 chunks=935
defrag sd=false gen=2 dur=29107713 unique=107419 deduped=8525365 rewritten=139957 lookups=1 prefetch=1 cachehits=921 frags=14 chunks=935
defrag sd=false gen=3 dur=29165589 unique=145258 deduped=8536904 rewritten=111263 lookups=1 prefetch=1 cachehits=920 frags=20 chunks=936
defrag sd=false stored=9438900 containers=5 util=0.973385 simtime=144695256
defrag sd=false restore dur=43225747 creads=5 extents=4 hits=931 bytes=8793425
ddfs-like sd=false gen=0 dur=38780401 unique=7292991 deduped=0 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=2 chunks=782
ddfs-like sd=false gen=1 dur=42085073 unique=1642012 deduped=7146768 rewritten=0 lookups=2 prefetch=2 cachehits=764 frags=9 chunks=935
ddfs-like sd=false gen=2 dur=28638390 unique=107419 deduped=8665322 rewritten=0 lookups=1 prefetch=1 cachehits=921 frags=14 chunks=935
ddfs-like sd=false gen=3 dur=28792473 unique=145258 deduped=8648167 rewritten=0 lookups=1 prefetch=1 cachehits=920 frags=20 chunks=936
ddfs-like sd=false stored=9187680 containers=5 util=1.000000 simtime=143852817
ddfs-like sd=false restore dur=46250512 creads=5 extents=5 hits=931 bytes=8793425
silo-like sd=false gen=0 dur=42780401 unique=7292991 deduped=0 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=2 chunks=782
silo-like sd=false gen=1 dur=33648460 unique=1642012 deduped=7146768 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=9 chunks=935
silo-like sd=false gen=2 dur=32509684 unique=107419 deduped=8665322 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=14 chunks=935
silo-like sd=false gen=3 dur=28949890 unique=230399 deduped=8563026 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=20 chunks=936
silo-like sd=false stored=9272821 containers=5 util=1.000000 simtime=137888435
silo-like sd=false restore dur=42751235 creads=5 extents=4 hits=931 bytes=8793425
sparse-index sd=false gen=0 dur=42780400 unique=7292991 deduped=0 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=2 chunks=782
sparse-index sd=false gen=1 dur=81791445 unique=1642012 deduped=7146768 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=9 chunks=935
sparse-index sd=false gen=2 dur=108804349 unique=107419 deduped=8665322 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=14 chunks=935
sparse-index sd=false gen=3 dur=141107845 unique=145258 deduped=8648167 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=20 chunks=936
sparse-index sd=false stored=9187680 containers=5 util=1.000000 simtime=374484039
sparse-index sd=false restore dur=46250512 creads=5 extents=5 hits=931 bytes=8793425
idedup sd=false gen=0 dur=38634429 unique=7292991 deduped=0 rewritten=0 lookups=0 prefetch=0 cachehits=0 frags=2 chunks=782
idedup sd=false gen=1 dur=17682111 unique=1642012 deduped=7089673 rewritten=57095 lookups=0 prefetch=0 cachehits=0 frags=9 chunks=935
idedup sd=false gen=2 dur=12818865 unique=107419 deduped=8526192 rewritten=139130 lookups=0 prefetch=0 cachehits=0 frags=12 chunks=935
idedup sd=false gen=3 dur=13029270 unique=145258 deduped=8492028 rewritten=156139 lookups=0 prefetch=0 cachehits=0 frags=14 chunks=936
idedup sd=false stored=9540044 containers=5 util=1.000000 simtime=82164675
idedup sd=false restore dur=47257267 creads=5 extents=5 hits=931 bytes=8793425
`

// goldenRun replays the pinned scenario for one engine and appends its
// formatted measurements to w in the transcript's line format.
func goldenRun(t *testing.T, kind EngineKind, storeData bool, w *strings.Builder) {
	t.Helper()
	ctx := context.Background()
	cfg := workload.DefaultConfig(7)
	cfg.NumFiles = 8
	cfg.MeanFileSize = 640 << 10
	st, err := Open(Options{Engine: kind, Alpha: 0.1, ExpectedBytes: 64 << 20, StoreData: storeData, TrackEfficiency: true})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := workload.NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		bk := sched.Next()
		b, err := st.Backup(ctx, bk.Label, bk.Stream)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(w, "%s sd=%v gen=%d dur=%d unique=%d deduped=%d rewritten=%d lookups=%d prefetch=%d cachehits=%d frags=%d chunks=%d\n",
			kind, storeData, g, b.Stats.Duration.Nanoseconds(), b.Stats.UniqueBytes, b.Stats.DedupedBytes,
			b.Stats.RewrittenBytes, b.Stats.IndexLookups, b.Stats.MetaPrefetches, b.Stats.CacheHits,
			b.Fragments(), b.Chunks())
	}
	ss := st.Stats()
	fmt.Fprintf(w, "%s sd=%v stored=%d containers=%d util=%.6f simtime=%d\n",
		kind, storeData, ss.StoredBytes, ss.Containers, ss.Utilization, st.SimulatedTime().Nanoseconds())
	last := st.Backups()[len(st.Backups())-1]
	r, err := st.RestoreWith(ctx, last, nil, RestoreOptions{CacheContainers: 8, Policy: RestoreOPT, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(w, "%s sd=%v restore dur=%d creads=%d extents=%d hits=%d bytes=%d\n",
		kind, storeData, r.Duration.Nanoseconds(), r.ContainerReads, r.ExtentReads, r.CacheHits, r.Bytes)
}

func TestSimBackendMatchesPreRefactorGolden(t *testing.T) {
	var got strings.Builder
	goldenRun(t, DeFrag, true, &got)
	goldenRun(t, DeFrag, false, &got)
	goldenRun(t, DDFSLike, false, &got)
	goldenRun(t, SiLoLike, false, &got)
	goldenRun(t, SparseIndex, false, &got)
	goldenRun(t, IDedup, false, &got)

	if got.String() != goldenTranscript {
		wantLines := strings.Split(goldenTranscript, "\n")
		gotLines := strings.Split(got.String(), "\n")
		for i := range wantLines {
			g := ""
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if g != wantLines[i] {
				t.Errorf("line %d:\n  want %q\n  got  %q", i+1, wantLines[i], g)
			}
		}
		t.Fatal("sim backend diverged from pre-refactor measurements")
	}
}
