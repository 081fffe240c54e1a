// Command dedupscan runs real files through the deduplication engines: it
// walks a directory tree, ingests it as one backup stream, optionally
// ingests it again (or a second tree) to measure cross-snapshot redundancy,
// and reports dedup ratio, chunk statistics and placement layout.
//
// This is the "your own data" entry point: everything else in the
// repository drives synthetic workloads; dedupscan answers "what would
// DeFrag do to this directory?"
//
// Usage:
//
//	dedupscan [-engine defrag|ddfs|silo|sparse|idedup] [-alpha α] DIR [DIR2...]
//
// Each DIR is ingested as one backup generation, in order. Ingesting the
// same directory twice shows self-redundancy across snapshots; pointing at
// two versions of a tree shows incremental redundancy.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro"
	"repro/internal/cli"
)

func main() { cli.Main("dedupscan", realMain) }

func realMain() error {
	var (
		eng cli.Engine
		tel cli.Telemetry
	)
	cli.EngineFlags(&eng)
	cli.TelemetryFlags(&tel)
	flag.Parse()
	if flag.NArg() < 1 {
		return cli.Usagef("usage: dedupscan [flags] DIR [DIR2 ...]")
	}
	ep, err := tel.Start(nil)
	if err != nil {
		return err
	}
	defer ep.Close()
	return run(eng, flag.Args())
}

func run(eng cli.Engine, dirs []string) error {
	ctx := context.Background()
	kind, err := repro.ParseEngineKind(eng.Name)
	if err != nil {
		return err
	}
	// Size the engine from the first tree.
	estimate, err := treeSize(dirs[0])
	if err != nil {
		return err
	}
	store, err := repro.Open(repro.Options{
		Engine:        kind,
		Alpha:         eng.Alpha,
		ExpectedBytes: estimate * int64(len(dirs)+1),
	})
	if err != nil {
		return err
	}
	defer store.Close() //nolint:errcheck // sim backend: close cannot fail meaningfully

	for i, dir := range dirs {
		pr, pw := io.Pipe()
		go func(d string) { pw.CloseWithError(streamTree(d, pw)) }(dir)
		b, err := store.Backup(ctx, fmt.Sprintf("scan%02d:%s", i, dir), pr)
		if err != nil {
			return fmt.Errorf("ingesting %s: %w", dir, err)
		}
		st := b.Stats
		fmt.Printf("%-40s %8.1f MB  %7d chunks  new %7.1f MB  dup %7.1f MB  rewritten %6.1f MB\n",
			b.Label, float64(st.LogicalBytes)/1e6, st.Chunks,
			float64(st.UniqueBytes)/1e6, float64(st.DedupedBytes)/1e6, float64(st.RewrittenBytes)/1e6)
		li := b.Layout()
		fmt.Printf("%-40s layout: %d fragments over %d containers, mean run %.0f KB\n",
			"", li.Fragments, li.ContainersTouched, li.MeanRunBytes/1e3)
	}

	s := store.Stats()
	fmt.Printf("\ntotal: %.1f MB logical -> %.1f MB stored (dedup ratio %.2fx, %d containers)\n",
		float64(s.LogicalBytes)/1e6, float64(s.StoredBytes)/1e6, s.CompressionRatio, s.Containers)
	return nil
}

// treeSize sums regular-file sizes under dir.
func treeSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// streamTree writes dir's regular files to w in sorted path order (a stable
// tar-like stream, so re-scanning an unchanged tree reproduces the stream).
func streamTree(dir string, w io.Writer) error {
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, p := range paths {
		// Path header delimits files in the stream (tar-metadata stand-in).
		if _, err := fmt.Fprintf(w, "\x00FILE:%s\x00", p); err != nil {
			return err
		}
		f, err := os.Open(p)
		if err != nil {
			// Unreadable files are skipped, not fatal: scanning /etc or a
			// homedir always hits a few.
			continue
		}
		_, err = io.Copy(w, f)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
