// Operations: the lifecycle features around the paper's algorithm —
// persistence, retention, garbage collection, and consistency checking.
// Back up a week of generations, expire the oldest, compact the store, export
// it to a directory and restore from the reopened directory, and verify the
// original's consistency.
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

	// Persistence: export what retention and compaction left, reopen the
	// directory as a durable store, restore the latest backup, verify bytes.
	dir, err := os.MkdirTemp("", "defrag-export-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := store.Export(ctx, dir); err != nil {
		log.Fatal(err)
	}
	reopened, err := repro.Open(repro.Options{
		Engine: repro.DeFrag, ExpectedBytes: 256 << 20, StoreData: true,
		Backend: repro.FileBackend, Dir: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	backups := reopened.Backups()
	latest := backups[len(backups)-1]
	var out bytes.Buffer
	rst, err := reopened.Restore(ctx, latest, &out, true)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), lastData) {
		log.Fatal("restore from the exported store differs from the original stream")
	}
	fmt.Printf("export: %d backups in %s; reopened, %s restored at %.1f MB/s and verified bit-exact\n",
		len(backups), dir, latest.Label, rst.ThroughputMBps())

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
