package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/catalog"
	"repro/internal/workload"
)

// exportGens returns n generations of one small seeded file set.
func exportGens(t *testing.T, seed int64, n int) (labels []string, datas [][]byte) {
	t.Helper()
	cfg := workload.DefaultConfig(seed)
	cfg.NumFiles = 6
	cfg.MeanFileSize = 512 << 10
	sched, err := workload.NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < n; g++ {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			t.Fatal(err)
		}
		labels, datas = append(labels, b.Label), append(datas, data)
	}
	return labels, datas
}

// treeState is every file under dir with its size and modification time.
func treeState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		state[path] = fmt.Sprint(info.Size(), info.ModTime().UnixNano())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestExportReopens is the one durable format's round trip: whatever store
// Export is called on — any engine, with chunk bytes or placement only, on
// either backend, before or after a merge dropped containers out of the log —
// the directory it writes opens as a FileBackend store with the same backups
// and statistics, restores them bit-identical at the same simulated cost,
// checks clean, and goes on deduplicating against the adopted containers.
func TestExportReopens(t *testing.T) {
	type row struct {
		name      string
		engine    EngineKind
		storeData bool
		onFile    bool // the exported store is itself a FileBackend store
		drop      bool // Forget + maintenance + Compact before the export
	}
	var rows []row
	for _, ek := range []EngineKind{DeFrag, DDFSLike, SiLoLike, SparseIndex, IDedup} {
		rows = append(rows,
			row{name: ek.String() + "/data", engine: ek, storeData: true},
			row{name: ek.String() + "/meta", engine: ek})
	}
	rows = append(rows,
		row{name: "defrag/dropped-containers", engine: DeFrag, storeData: true, drop: true},
		row{name: "ddfs-like/from-file-backend", engine: DDFSLike, storeData: true, onFile: true},
		row{name: "defrag/from-file-backend/dropped-containers", engine: DeFrag, storeData: true, onFile: true, drop: true})

	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ctx := context.Background()
			gens := 3
			if r.drop {
				gens = 6
			}
			labels, datas := exportGens(t, int64(300+i), gens+1)
			opts := Options{Engine: r.engine, Alpha: 0.3, StoreData: r.storeData, ExpectedBytes: 64 << 20}
			if r.onFile {
				opts.Backend, opts.Dir = FileBackend, t.TempDir()
			}
			src, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close() //nolint:errcheck // test teardown
			for g := 0; g < gens; g++ {
				if _, err := src.Backup(ctx, labels[g], bytes.NewReader(datas[g])); err != nil {
					t.Fatal(err)
				}
			}
			want := datas[:gens]
			if r.drop {
				for _, l := range labels[:3] {
					src.Forget(l)
				}
				want = datas[3:gens]
				if _, err := src.MaintenanceEpoch(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := src.Compact(ctx, 0.95); err != nil {
					t.Fatal(err)
				}
				if cs := src.eng.Containers(); cs.Slots() == cs.NumContainers() {
					t.Fatal("no container was dropped: the row tests nothing")
				}
			}
			var wantCost []time.Duration
			for _, b := range src.Backups() {
				st, err := src.Restore(ctx, b, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				wantCost = append(wantCost, st.Duration)
			}

			dir := filepath.Join(t.TempDir(), "export") // Export makes it
			if err := src.Export(ctx, dir); err != nil {
				t.Fatal(err)
			}

			// catalog.log is a checkpoint: one commit record per retained
			// backup, in order, and not a byte more.
			entries := replayCatalogFile(t, dir)
			if len(entries) != len(src.Backups()) {
				t.Fatalf("catalog holds %d backups, the store %d", len(entries), len(src.Backups()))
			}
			for k, b := range src.Backups() {
				rec := entries[k].Recipe
				if rec.Label != b.Label || rec.Len() != b.Chunks() || rec.Fragments() != b.Fragments() {
					t.Fatalf("catalog entry %d: %s, %d chunks; backup %s has %d", k, rec.Label, rec.Len(), b.Label, b.Chunks())
				}
			}
			for _, old := range []string{"backups.json", "recipes"} {
				if _, err := os.Stat(filepath.Join(dir, old)); !os.IsNotExist(err) {
					t.Fatalf("export wrote %s: %v", old, err)
				}
			}

			reopenAs := DeFrag // continues what any engine placed
			if r.engine == DDFSLike {
				reopenAs = DDFSLike
			}
			re, err := Open(Options{Engine: reopenAs, Alpha: 0.3, StoreData: r.storeData, ExpectedBytes: 64 << 20,
				Backend: FileBackend, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close() //nolint:errcheck // test teardown
			ss, rs := src.Stats(), re.Stats()
			ss.Utilization, rs.Utilization = 0, 0 // dead bytes are index state, recounted from the next rewrite on, as on any reopen
			if ss != rs {
				t.Fatalf("store stats: exported %+v, reopened %+v", ss, rs)
			}
			backups := re.Backups()
			if len(backups) != len(want) {
				t.Fatalf("reopened %d backups, want %d", len(backups), len(want))
			}
			for k, b := range backups {
				if sb := src.Backups()[k]; b.Label != sb.Label || b.Stats != sb.Stats {
					t.Fatalf("backup %d: exported %s %+v, reopened %s %+v", k, sb.Label, sb.Stats, b.Label, b.Stats)
				}
				var out bytes.Buffer
				st, err := re.Restore(ctx, b, &out, r.storeData)
				if err != nil {
					t.Fatalf("restoring %s: %v", b.Label, err)
				}
				if r.storeData && !bytes.Equal(out.Bytes(), want[k]) {
					t.Fatalf("%s restores different bytes from the exported directory", b.Label)
				}
				if int64(out.Len()) != b.Stats.LogicalBytes || st.Duration != wantCost[k] {
					t.Fatalf("%s: restored %d bytes in %v simulated, the exported store %d in %v",
						b.Label, out.Len(), st.Duration, b.Stats.LogicalBytes, wantCost[k])
				}
			}
			if rep, err := re.Check(ctx, r.storeData); err != nil || !rep.OK() {
				t.Fatalf("check of the reopened directory: %v %v", err, rep.Problems)
			}

			next, err := re.Backup(ctx, labels[gens], bytes.NewReader(datas[gens]))
			if err != nil {
				t.Fatal(err)
			}
			if 2*next.Stats.DedupedBytes < next.Stats.LogicalBytes {
				t.Fatalf("next generation deduplicated %d of %d bytes against the adopted containers",
					next.Stats.DedupedBytes, next.Stats.LogicalBytes)
			}
			if r.storeData {
				var out bytes.Buffer
				if _, err := re.Restore(ctx, next, &out, true); err != nil || !bytes.Equal(out.Bytes(), datas[gens]) {
					t.Fatalf("next generation after the reopen: %v, or different bytes", err)
				}
			}

			// A directory that holds anything is refused and left as it is:
			// the reopened one, and the file-backend store's own.
			for _, taken := range []string{dir, opts.Dir} {
				if taken == "" {
					continue
				}
				before := treeState(t, taken)
				if err := src.Export(ctx, taken); err == nil {
					t.Fatalf("Export into %s, which holds a store, succeeded", taken)
				}
				if after := treeState(t, taken); !maps.Equal(after, before) {
					t.Fatalf("refused Export changed %s:\n before %v\n after  %v", taken, before, after)
				}
			}
		})
	}
}

// cancelAfterReads cancels a context once the backend under it has served n
// data-section reads.
type cancelAfterReads struct {
	blockstore.Backend
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterReads) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	if c.n--; c.n == 0 {
		defer c.cancel()
	}
	return c.Backend.ReadDataRange(ctx, ids)
}

// TestExportCancelledLeavesNoBackup: the catalog is written after the last
// container, so an Export stopped part-way leaves a directory that opens with
// the containers it got, no backup naming one it did not, and a clean Check.
func TestExportCancelledLeavesNoBackup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spy := &cancelAfterReads{n: 2, cancel: cancel}
	src, err := Open(Options{Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 64 << 20,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend { spy.Backend = be; return spy }})
	if err != nil {
		t.Fatal(err)
	}
	labels, datas := exportGens(t, 400, 4)
	for g := range datas {
		if _, err := src.Backup(context.Background(), labels[g], bytes.NewReader(datas[g])); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := src.Export(ctx, dir); err == nil {
		t.Fatal("cancelled Export returned nil")
	}
	if _, err := os.Stat(filepath.Join(dir, catalog.FileName)); !os.IsNotExist(err) {
		t.Fatalf("cancelled Export left a catalog: %v", err)
	}
	re, err := Open(Options{Engine: DeFrag, StoreData: true, ExpectedBytes: 64 << 20, Backend: FileBackend, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck // test teardown
	if got, all := re.Stats().Containers, src.Stats().Containers; got == 0 || got >= all {
		t.Fatalf("partial directory holds %d of %d containers: the copy was not stopped part-way", got, all)
	}
	if n := len(re.Backups()); n != 0 {
		t.Fatalf("partial directory lists %d backups", n)
	}
	if rep, err := re.Check(context.Background(), true); err != nil || !rep.OK() {
		t.Fatalf("check of the partial directory: %v %v", err, rep.Problems)
	}
}
