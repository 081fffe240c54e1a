package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/workload"
)

// restoreMode is one restore strategy under test, as a closure over the
// Store entry point it exercises.
type restoreMode struct {
	name string
	run  func(ctx context.Context, s *Store, b *Backup, w io.Writer) error
}

func allRestoreModes() []restoreMode {
	with := func(opts RestoreOptions) func(context.Context, *Store, *Backup, io.Writer) error {
		return func(ctx context.Context, s *Store, b *Backup, w io.Writer) error {
			opts.Verify = true
			_, err := s.RestoreWith(ctx, b, w, opts)
			return err
		}
	}
	return []restoreMode{
		{"lru", with(RestoreOptions{})},
		{"opt", with(RestoreOptions{Policy: RestoreOPT})},
		{"pipelined", with(RestoreOptions{Policy: RestoreOPT, Coalesce: true})},
		{"faa", with(RestoreOptions{Policy: RestoreFAA})},
		{"faa-pipelined", with(RestoreOptions{CacheContainers: 1, Policy: RestoreFAA, Coalesce: true})},
	}
}

// refusedDir reports whether opts is a cell of the matrix that has no round
// trip to make: an engine that cannot reopen a store directory is refused one
// when it first asks (TestFileBackendReopenRequiresAdoptingEngine), and the
// cell holds Open to that.
func refusedDir(t *testing.T, opts Options, err error) bool {
	t.Helper()
	if opts.Backend != FileBackend || opts.Engine == DeFrag || opts.Engine == DDFSLike {
		return false
	}
	if err == nil {
		t.Fatalf("%s opened a store directory it could never reopen", opts.Engine)
	}
	return true
}

// TestBackupRestoreInvariant is the round-trip property over the whole
// matrix: for a seeded random workload, every engine × every physical
// backend it runs on must Backup and then restore bit-identical content under
// every restore strategy, and the store must pass fsck afterwards. This is the
// single invariant the per-feature round-trip checks used to assert
// piecemeal; new engines, backends, or restore modes belong in this table.
func TestBackupRestoreInvariant(t *testing.T) {
	engines := []EngineKind{DeFrag, DDFSLike, SiLoLike, SparseIndex, IDedup}
	backends := []BackendKind{SimBackend, FileBackend}
	const gens = 3

	for _, ek := range engines {
		for _, bk := range backends {
			t.Run(fmt.Sprintf("%s/%s", ek, bk), func(t *testing.T) {
				opts := Options{
					Engine:        ek,
					Alpha:         0.1,
					StoreData:     true,
					ExpectedBytes: 32 << 20,
					Backend:       bk,
				}
				if bk == FileBackend {
					opts.Dir = t.TempDir()
				}
				s, err := Open(opts)
				if refusedDir(t, opts, err) {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close() //nolint:errcheck // test teardown

				// Seed varies per cell so no two cells share a workload.
				cfg := workload.DefaultConfig(int64(1 + int(ek)*10 + int(bk)))
				cfg.NumFiles = 6
				cfg.MeanFileSize = 96 << 10
				sched, err := workload.NewSingle(cfg)
				if err != nil {
					t.Fatal(err)
				}

				ctx := context.Background()
				var originals [][]byte
				var backups []*Backup
				for g := 0; g < gens; g++ {
					bkp := sched.Next()
					data, err := io.ReadAll(bkp.Stream)
					if err != nil {
						t.Fatal(err)
					}
					b, err := s.Backup(ctx, bkp.Label, bytes.NewReader(data))
					if err != nil {
						t.Fatalf("backup gen %d: %v", g, err)
					}
					originals = append(originals, data)
					backups = append(backups, b)
				}

				for g, b := range backups {
					for _, mode := range allRestoreModes() {
						var buf bytes.Buffer
						if err := mode.run(ctx, s, b, &buf); err != nil {
							t.Fatalf("restore gen %d mode %s: %v", g, mode.name, err)
						}
						if !bytes.Equal(buf.Bytes(), originals[g]) {
							t.Fatalf("restore gen %d mode %s: %d bytes differ from %d original",
								g, mode.name, buf.Len(), len(originals[g]))
						}
					}
				}

				rep, err := s.Check(ctx, true)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("fsck after round trip: %v", rep.Problems)
				}
			})
		}
	}
}

// TestScenarioRoundtripInvariant extends the round-trip property across the
// scenario axis: every workload family (backup, primary, workspace) × every
// engine × every physical backend must ingest seeded streams and restore
// them bit-identically under every restore strategy, with fsck clean at the
// end. Primary and workspace streams have very different duplicate geometry
// from the backup generations the engines were tuned on, so this is the
// cheapest way to catch an engine that silently assumes generational shape.
func TestScenarioRoundtripInvariant(t *testing.T) {
	engines := []EngineKind{DeFrag, DDFSLike, SiLoLike, SparseIndex, IDedup}
	backends := []BackendKind{SimBackend, FileBackend}
	const streams = 4

	for _, sc := range workload.AllScenarios() {
		for _, ek := range engines {
			for _, bk := range backends {
				t.Run(fmt.Sprintf("%s/%s/%s", sc, ek, bk), func(t *testing.T) {
					opts := Options{
						Engine:        ek,
						Alpha:         0.1,
						StoreData:     true,
						ExpectedBytes: 32 << 20,
						Backend:       bk,
					}
					if bk == FileBackend {
						opts.Dir = t.TempDir()
					}
					if ek == DeFrag && sc == workload.ScenarioPrimary {
						// The primary scenario is the filter's target
						// workload; run it enabled with a probation short
						// enough to reach a verdict at test scale.
						opts.Filter = FilterOptions{Enabled: true, Probation: 32}
					}
					s, err := Open(opts)
					if refusedDir(t, opts, err) {
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close() //nolint:errcheck // test teardown

					sched, err := workload.NewScenario(sc, workload.ScenarioParams{
						Seed:           int64(1 + int(sc)*100 + int(ek)*10 + int(bk)),
						Users:          2,
						BytesPerStream: 256 << 10,
					})
					if err != nil {
						t.Fatal(err)
					}

					ctx := context.Background()
					var originals [][]byte
					var backups []*Backup
					for i := 0; i < streams; i++ {
						bkp := sched.Next()
						data, err := io.ReadAll(bkp.Stream)
						if err != nil {
							t.Fatal(err)
						}
						b, err := s.Backup(ctx, bkp.Label, bytes.NewReader(data))
						if err != nil {
							t.Fatalf("backup %s: %v", bkp.Label, err)
						}
						originals = append(originals, data)
						backups = append(backups, b)
					}

					for i, b := range backups {
						for _, mode := range allRestoreModes() {
							var buf bytes.Buffer
							if err := mode.run(ctx, s, b, &buf); err != nil {
								t.Fatalf("restore stream %d mode %s: %v", i, mode.name, err)
							}
							if !bytes.Equal(buf.Bytes(), originals[i]) {
								t.Fatalf("restore stream %d mode %s: %d bytes differ from %d original",
									i, mode.name, buf.Len(), len(originals[i]))
							}
						}
					}

					rep, err := s.Check(ctx, true)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK() {
						t.Fatalf("fsck after %s round trip: %v", sc, rep.Problems)
					}
				})
			}
		}
	}
}

// TestScenarioIngestStreamConcurrent ingests each scenario's streams through
// the network entry point with one concurrent IngestStream per tenant —
// the shape a multi-tenant dedupd sees — and requires bit-identical
// restores plus clean fsck.
func TestScenarioIngestStreamConcurrent(t *testing.T) {
	for _, sc := range workload.AllScenarios() {
		t.Run(sc.String(), func(t *testing.T) {
			s, err := Open(Options{Engine: DeFrag, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close() //nolint:errcheck // test teardown

			const tenants = 3
			const rounds = 2
			ctx := context.Background()
			type named struct {
				label string
				data  []byte
			}
			perTenant := make([][]named, tenants)
			for tn := 0; tn < tenants; tn++ {
				// One independent schedule per tenant: cross-tenant dedup
				// comes from the store, not from sharing a generator.
				sched, err := workload.NewScenario(sc, workload.ScenarioParams{
					Seed:           int64(40 + tn),
					Users:          1,
					BytesPerStream: 192 << 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rounds; r++ {
					bkp := sched.Next()
					data, err := io.ReadAll(bkp.Stream)
					if err != nil {
						t.Fatal(err)
					}
					perTenant[tn] = append(perTenant[tn], named{
						label: fmt.Sprintf("t%d/%s", tn, bkp.Label),
						data:  data,
					})
				}
			}

			errs := make(chan error, tenants)
			for tn := 0; tn < tenants; tn++ {
				go func(tn int) {
					for _, st := range perTenant[tn] {
						if _, err := s.IngestStream(ctx, st.label, bytes.NewReader(st.data)); err != nil {
							errs <- fmt.Errorf("%s: %w", st.label, err)
							return
						}
					}
					errs <- nil
				}(tn)
			}
			for tn := 0; tn < tenants; tn++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}

			for tn := 0; tn < tenants; tn++ {
				for _, st := range perTenant[tn] {
					b := s.FindBackup(st.label)
					if b == nil {
						t.Fatalf("stream %s not retained", st.label)
					}
					var buf bytes.Buffer
					if _, err := s.Restore(ctx, b, &buf, true); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf.Bytes(), st.data) {
						t.Fatalf("stream %s: restored content diverged", st.label)
					}
				}
			}
			rep, err := s.Check(ctx, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("fsck after concurrent %s ingest: %v", sc, rep.Problems)
			}
		})
	}
}

// TestIngestStreamConcurrentInvariant is the same bit-identical property
// through the network service's Store entry point: many concurrent
// IngestStream calls (the serve path) over one store, then every stream
// restores bit-identically and fsck passes.
func TestIngestStreamConcurrentInvariant(t *testing.T) {
	for _, ek := range []EngineKind{DeFrag, DDFSLike, IDedup} { // with and without concurrent-stream support
		t.Run(ek.String(), func(t *testing.T) {
			s, err := Open(Options{Engine: ek, Alpha: 0.1, StoreData: true, ExpectedBytes: 32 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close() //nolint:errcheck // test teardown

			const streams = 6
			ctx := context.Background()
			contents := make([][]byte, streams)
			errs := make(chan error, streams)
			for i := 0; i < streams; i++ {
				cfg := workload.DefaultConfig(int64(500 + i))
				cfg.NumFiles = 4
				cfg.MeanFileSize = 64 << 10
				sched, err := workload.NewSingle(cfg)
				if err != nil {
					t.Fatal(err)
				}
				data, err := io.ReadAll(sched.Next().Stream)
				if err != nil {
					t.Fatal(err)
				}
				contents[i] = data
				go func(i int) {
					_, err := s.IngestStream(ctx, fmt.Sprintf("s%d", i), bytes.NewReader(contents[i]))
					errs <- err
				}(i)
			}
			for i := 0; i < streams; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < streams; i++ {
				b := s.FindBackup(fmt.Sprintf("s%d", i))
				if b == nil {
					t.Fatalf("stream s%d not retained", i)
				}
				var buf bytes.Buffer
				if _, err := s.Restore(ctx, b, &buf, true); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), contents[i]) {
					t.Fatalf("stream s%d: restored content diverged", i)
				}
			}
			rep, err := s.Check(ctx, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("fsck after concurrent ingest: %v", rep.Problems)
			}
		})
	}
}
