package main

import (
	"context"
	"strings"
	"testing"

	"repro"
	"repro/internal/workload"
)

// TestRestoreModeSelectsThePolicy is internal/serve's test of the same name
// for -restore.mode: "" is the store's default shape (forward-knowledge
// eviction) and "lru" selects LRU explicitly instead of by leaving the
// default alone.
func TestRestoreModeSelectsThePolicy(t *testing.T) {
	ctx := context.Background()
	store, err := repro.Open(repro.Options{Engine: repro.DeFrag, Alpha: 0.1, ExpectedBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	wcfg := workload.DefaultConfig(11)
	wcfg.NumFiles = 24
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var newest *repro.Backup
	for g := 0; g < 6; g++ {
		b := sched.Next()
		if newest, err = store.Backup(ctx, b.Label, b.Stream); err != nil {
			t.Fatal(err)
		}
	}
	const cache = 2
	reads := func(policy repro.RestorePolicy) int64 {
		t.Helper()
		rs, err := store.RestoreWith(ctx, newest, nil, repro.RestoreOptions{CacheContainers: cache, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		return rs.ContainerReads
	}
	lru, opt, faa := reads(repro.RestoreLRU), reads(repro.RestoreOPT), reads(repro.RestoreFAA)
	if opt >= lru || faa == opt || faa == lru {
		t.Fatalf("OPT-%d reads %d containers, LRU-%d %d, FAA-%d %d: the recipe cannot tell the modes apart", cache, opt, cache, lru, cache, faa)
	}
	for mode, want := range map[string]int64{"": opt, "lru": lru, "opt": opt, "pipelined": opt, "faa": faa} {
		rs, err := restoreOne(ctx, params{restoreMode: mode, restoreCache: cache}, store, newest)
		if err != nil {
			t.Fatalf("-restore.mode %q: %v", mode, err)
		}
		if rs.ContainerReads != want {
			t.Errorf("-restore.mode %q: %d container reads, want %d (lru %d, opt %d, faa %d)", mode, rs.ContainerReads, want, lru, opt, faa)
		}
		if rs.ReadBytes < rs.Bytes/2 || readAmp(rs.ReadBytes, rs.Bytes) == "-" {
			t.Errorf("-restore.mode %q: ReadBytes %d for %d restored", mode, rs.ReadBytes, rs.Bytes)
		}
	}
	if _, err := restoreOne(ctx, params{restoreMode: "bogus"}, store, newest); err == nil {
		t.Error("an unknown -restore.mode was accepted")
	}
}

// TestFsckOnlyRefusesAStoreInUse: -fsckonly on a directory another store
// holds fails with the directory's name instead of replaying under it.
func TestFsckOnlyRefusesAStoreInUse(t *testing.T) {
	dir := t.TempDir()
	store, err := repro.Open(repro.Options{Engine: repro.DeFrag, ExpectedBytes: 32 << 20, Backend: repro.FileBackend, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	err = run(params{engineName: "defrag", backend: "file", storeDir: dir, fsckOnly: true, scenario: "backup", gens: 1, files: 1, fileKB: 1})
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("-fsckonly on a store in use: %v, want a refusal naming %s", err, dir)
	}
}
