package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/cli"
	"repro/internal/workload"
)

// childEnv makes the test binary run as dedupsim (see TestMain), for the
// transcripts.
const childEnv = "DEDUPSIM_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		cli.Main("dedupsim", realMain)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// streamsVary matches what a -streams run does not repeat: the tput_MBps
// column and the simulated time, which move with how the concurrent streams
// interleave on the store's one container writer.
var streamsVary = regexp.MustCompile(`(?m)^(\d+ +[\d.]+ +)[\d.]+|simulated time [\d.]+s`)

// TestTranscripts pins dedupsim's stdout for small runs, to the last digit
// (the rates are simulated), with -streams runs masked by streamsVary. A
// change that means to move a table rewrites its file under testdata and
// says why.
func TestTranscripts(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"restore.txt", "-gens 4 -files 8 -restore"},
		{"verify-lru.txt", "-gens 4 -files 8 -verify -restore.mode lru -restore.cache 2 -seed 3 -alpha 0.2 -check"},
		{"streams.txt", "-streams 2 -gens 3 -files 8 -restore"},
	} {
		cmd := exec.Command(os.Args[0], strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("dedupsim %s: %v", tc.args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(tc.args, "-streams") {
			got, want = streamsVary.ReplaceAll(got, []byte("*")), streamsVary.ReplaceAll(want, []byte("*"))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("dedupsim %s moved from testdata/%s:\n%s", tc.args, tc.golden, got)
		}
	}
}

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
	restoreOne := func(p params) (repro.RestoreStats, error) {
		p.doRestore = true
		opts, err := restoreOptions(p)
		if err != nil {
			return repro.RestoreStats{}, err
		}
		return store.RestoreWith(ctx, newest, nil, *opts)
	}
	for mode, want := range map[string]int64{"": opt, "lru": lru, "opt": opt, "pipelined": opt, "faa": faa} {
		rs, err := restoreOne(params{restoreMode: mode, restoreCache: cache})
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
	if _, err := restoreOne(params{restoreMode: "bogus"}); err == nil {
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
	err = run(params{engine: cli.Engine{Name: "defrag"}, backend: cli.Backend{Name: "file", Dir: dir}, fsckOnly: true, scenario: "backup", gens: 1, files: 1, fileKB: 1})
	if err == nil || !strings.Contains(err.Error(), dir) {
		t.Fatalf("-fsckonly on a store in use: %v, want a refusal naming %s", err, dir)
	}
}
