package repro

import (
	"bytes"
	"context"
	"io"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestRetainedLabelIsRefused: a label that a retained backup has is refused
// by Backup, IngestStream and BackupStreams, on both backends, and the store
// goes on as if the second upload never came. Eight backups labelled
// x a b c x d e f: before the refusal the second x was kept, and then every
// maintenance epoch failed on the file backend (the catalog resolves a label
// to its first backup, so the remap of the second x met the first's recipe),
// while on sim the epoch installed the second x's recipe over the first.
func TestRetainedLabelIsRefused(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []BackendKind{SimBackend, FileBackend} {
		t.Run(backend.String(), func(t *testing.T) {
			opts := Options{Engine: DeFrag, Alpha: 0.3, StoreData: true, ExpectedBytes: 64 << 20,
				Backend: backend, Maintenance: maintOptions()}
			if backend == FileBackend {
				opts.Dir = t.TempDir()
			}
			s := mustOpenStore(t, opts)
			defer func() { s.Close() }() //nolint:errcheck // test teardown
			wcfg := workload.DefaultConfig(40)
			wcfg.NumFiles = 6
			sched, err := workload.NewSingle(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			var labels []string
			var datas [][]byte
			for _, label := range []string{"x", "a", "b", "c", "x", "d", "e", "f"} {
				data, err := io.ReadAll(sched.Next().Stream)
				if err != nil {
					t.Fatal(err)
				}
				_, err = s.Backup(ctx, label, bytes.NewReader(data))
				if slices.Contains(labels, label) {
					if err == nil {
						t.Fatalf("a second backup labelled %q was retained", label)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				labels, datas = append(labels, label), append(datas, data)
			}
			if _, err := s.IngestStream(ctx, "x", bytes.NewReader(datas[1])); err == nil {
				t.Fatal("IngestStream retained a second x")
			}
			// A round with a retained label, and one with a label given twice:
			// each keeps one stream and refuses the other.
			for _, round := range [][]string{{"g", "a"}, {"h", "h"}} {
				inputs := []StreamInput{{round[0], bytes.NewReader(datas[2])}, {round[1], bytes.NewReader(datas[3])}}
				kept, _, err := s.BackupStreams(ctx, inputs, 2)
				if err == nil || len(kept) != 1 || kept[0].Label != round[0] {
					t.Fatalf("BackupStreams of %q: kept %d, %v", round, len(kept), err)
				}
				labels, datas = append(labels, round[0]), append(datas, datas[2])
			}
			if got := len(s.Backups()); got != len(labels) {
				t.Fatalf("%d backups retained after the refusals, want %d", got, len(labels))
			}
			for epoch := 0; epoch < 2; epoch++ {
				if _, err := s.MaintenanceEpoch(ctx); err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
			}
			restoreVerifyAll(t, s, datas)
			if rep, err := s.Check(ctx, true); err != nil || !rep.OK() {
				t.Fatalf("check: %v %v", err, rep.Problems)
			}
			if backend == FileBackend {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = mustOpenStore(t, opts)
				restoreVerifyAll(t, s, datas)
			}
		})
	}
}
