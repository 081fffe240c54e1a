// Operations: the lifecycle features around the paper's algorithm —
// persistence, retention, garbage collection, and consistency checking.
// Back up a week of generations, export the store to disk and restore from
// the archive, then expire the oldest generations, compact the store, and
// verify its consistency.
//
//	go run ./examples/operations
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/workload"
)

func main() {
	ctx := context.Background()
	store, err := repro.Open(repro.Options{
		Engine:          repro.DeFrag,
		Alpha:           0.15,
		ExpectedBytes:   256 << 20,
		StoreData:       true,
		TrackEfficiency: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A week of daily backups.
	wcfg := workload.DefaultConfig(123)
	wcfg.NumFiles = 16
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		log.Fatal(err)
	}
	var lastData []byte
	for day := 0; day < 7; day++ {
		b := sched.Next()
		data, err := io.ReadAll(b.Stream)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := store.Backup(ctx, b.Label, bytes.NewReader(data)); err != nil {
			log.Fatal(err)
		}
		lastData = data
	}
	st := store.Stats()
	fmt.Printf("after 7 backups: %.1f MB stored, utilization %.1f%%, compression %.2fx\n",
		float64(st.StoredBytes)/1e6, st.Utilization*100, st.CompressionRatio)

	// Persistence: export, reopen, restore the latest backup, verify bytes.
	// An archive is a replayable container log, so it is taken before
	// compaction drops containers out of the middle of it.
	dir, err := os.MkdirTemp("", "defrag-archive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := store.Export(ctx, dir); err != nil {
		log.Fatal(err)
	}
	arch, err := repro.OpenArchive(ctx, dir)
	if err != nil {
		log.Fatal(err)
	}
	backups := arch.Backups()
	latest := backups[len(backups)-1]
	var out bytes.Buffer
	rst, err := arch.Restore(ctx, latest, &out, true)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), lastData) {
		log.Fatal("archived restore differs from original stream")
	}
	fmt.Printf("archive: %d backups exported to %s; %s restored at %.1f MB/s and verified bit-exact\n",
		len(backups), dir, latest.Label, rst.ThroughputMBps())

	// Retention: keep the last 4 days.
	for _, label := range []string{"g00", "g01", "g02"} {
		store.Forget(label)
	}
	cs, err := store.Compact(ctx, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compaction: %d/%d containers collected, %.1f MB reclaimed, %d recipe refs patched\n",
		cs.ContainersCollected, cs.ContainersScanned, float64(cs.BytesReclaimed)/1e6, cs.RecipeRefsPatched)

	// Consistency: every surviving backup's chunks re-hash clean.
	rep, err := store.Check(ctx, true)
	if err != nil {
		log.Fatal(err)
	}
	if !rep.OK() {
		log.Fatalf("consistency check failed: %v", rep.Problems)
	}
	fmt.Printf("fsck: OK (%d containers, %d recipe refs, %d chunks re-hashed)\n",
		rep.Containers, rep.RecipeRefs, rep.HashedChunks)
}
