package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/blockstore"
)

// sealedSections remembers every data section the backend has handed out —
// on the sim backend the sealed arrays themselves, since Sim.ReadData does
// not copy — with the digest each had when first seen. Holding the slice
// keeps a section checkable after maintenance or compaction has dropped its
// container.
type sealedSections struct {
	be   blockstore.Backend
	data map[uint32][]byte
	sum  map[uint32][sha256.Size]byte
}

// record digests the sections of containers not seen before.
func (ss *sealedSections) record(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	infos, err := ss.be.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if _, seen := ss.data[info.ID]; seen {
			continue
		}
		data, err := ss.be.ReadData(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		ss.data[info.ID] = data
		ss.sum[info.ID] = sha256.Sum256(data)
	}
}

// verify re-digests every recorded section in place, and reads every one
// still sealed again: on the file backend the held slices are private copies
// and it is the second look that says the store's bytes are as they were.
func (ss *sealedSections) verify(t *testing.T, after string) {
	t.Helper()
	for id, data := range ss.data {
		if sha256.Sum256(data) != ss.sum[id] {
			t.Fatalf("after %s: sealed section of container %d was written to", after, id)
		}
	}
	ctx := context.Background()
	infos, err := ss.be.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		want, seen := ss.sum[info.ID]
		if !seen {
			continue
		}
		data, err := ss.be.ReadData(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if sha256.Sum256(data) != want {
			t.Fatalf("after %s: container %d reads back different bytes", after, info.ID)
		}
	}
}

// TestBackendReadsAreReadOnly holds every consumer of fetched data sections
// to both halves of the blockstore.Backend contract. Shared views: the sim
// backend returns its sealed sections themselves, so a consumer that wrote
// into what it fetched would corrupt the store. Lent buffers: the file
// backend reads into a buffer the restore executor lends it, which only that
// restore or maintenance merge may see again while it runs — not a sibling
// restore, not fsck, another merge or export (holderSpy, with every restore
// call and every maintenance run its own holder) — and of which it reads only
// the ranges the executor named: every lent buffer is poisoned first
// (loanSpy), so a restore or merge that looked outside them fails its verify,
// and the readers that lend nothing must still get whole sections.
// Every restore shape, fsck, a maintenance epoch, compaction and export run
// over one store of each kind; each sealed section must hash the same
// afterwards. Run under -race it also shows the concurrent readers of one
// section only read.
func TestBackendReadsAreReadOnly(t *testing.T) {
	for _, backend := range []BackendKind{SimBackend, FileBackend} {
		t.Run(backend.String(), func(t *testing.T) { testBackendReadsAreReadOnly(t, backend) })
	}
}

func testBackendReadsAreReadOnly(t *testing.T, backend BackendKind) {
	ctx := context.Background()
	var ss *sealedSections
	var spy *holderSpy
	loans := &loanSpy{poison: true}
	opts := Options{Engine: DeFrag, Alpha: 0.3, StoreData: true,
		ExpectedBytes: 64 << 20, Maintenance: maintOptions(), Backend: backend,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend {
			if backend == FileBackend {
				loans.Backend = be
				spy = &holderSpy{Backend: loans, t: t, by: map[*byte]*holding{}}
				be = spy
			}
			ss = &sealedSections{be: be, data: map[uint32][]byte{}, sum: map[uint32][sha256.Size]byte{}}
			return be
		}}
	if backend == FileBackend {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	datas := ingestGens(t, s, 91, 6)
	ss.record(t)
	if len(ss.data) < 2 {
		t.Fatalf("only %d sealed containers: the store is too small to say anything", len(ss.data))
	}

	restoreAllShapes := func(after string) {
		t.Helper()
		var shapes []RestoreOptions
		for _, policy := range []RestorePolicy{RestoreLRU, RestoreOPT, RestoreFAA} {
			for _, lanes := range []int{1, 4} {
				shapes = append(shapes, RestoreOptions{CacheContainers: 3, Policy: policy, Workers: lanes,
					Coalesce: lanes > 1, Verify: true})
			}
		}
		backups := s.Backups()
		want := datas[len(datas)-len(backups):]
		var wg sync.WaitGroup
		errs := make(chan error, len(shapes))
		for k, opts := range shapes {
			wg.Add(1)
			go func(opts RestoreOptions, holder string) {
				defer wg.Done()
				for i, b := range backups {
					var out bytes.Buffer
					var w io.Writer = &out
					ctx, done := ctx, func() {}
					if spy != nil {
						ctx, done = spy.hold(ctx, holder)
						w = spy.watch(ctx, w)
					}
					_, err := s.RestoreWith(ctx, b, w, opts)
					done()
					if err != nil {
						errs <- fmt.Errorf("%s %+v: %w", b.Label, opts, err)
						return
					}
					if !bytes.Equal(out.Bytes(), want[i]) {
						errs <- fmt.Errorf("%s %+v: restored stream differs", b.Label, opts)
						return
					}
				}
			}(opts, fmt.Sprintf("%s: shape %d", after, k))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		ss.verify(t, after)
	}

	restoreAllShapes("restores")

	rep, err := s.Check(ctx, true)
	if err != nil || !rep.OK() {
		t.Fatalf("check: %v %v", err, rep.Problems)
	}
	ss.verify(t, "fsck")

	// Export reads every sealed section once more, into another store.
	if err := s.Export(ctx, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	ss.verify(t, "export")

	for _, b := range s.Backups()[:3] {
		if res := s.Forget(b.Label); !res.Found {
			t.Fatalf("forget %s: not found", b.Label)
		}
	}
	var merged int64
	// maintenance runs one maintenance call as its own holder and returns the
	// chunks it moved.
	maintenance := func(name string, run func(context.Context) (int64, error)) int64 {
		t.Helper()
		ctx, done := ctx, func() {}
		if spy != nil {
			ctx, done = spy.hold(ctx, name)
		}
		moved, err := run(ctx)
		done()
		if err != nil {
			t.Fatal(err)
		}
		return moved
	}
	for i := 0; i < 2; i++ {
		merged += maintenance(fmt.Sprintf("epoch %d", i), func(ctx context.Context) (int64, error) {
			st, err := s.MaintenanceEpoch(ctx)
			return st.ChunksMoved, err
		})
	}
	ss.verify(t, "maintenance epochs")
	ss.record(t)

	// One more generation leaves superseded copies for Compact to collect.
	datas = append(datas, ingestGens(t, s, 92, 1)...)
	ss.record(t)
	compacted := maintenance("compaction", func(ctx context.Context) (int64, error) {
		st, err := s.Compact(ctx, 0.95)
		return st.ChunksMoved, err
	})
	t.Logf("maintenance moved %d chunks, compaction %d", merged, compacted)
	if merged == 0 || compacted == 0 {
		t.Fatal("maintenance or compaction read no victim section: nothing was tested")
	}
	ss.verify(t, "compaction")
	ss.record(t)

	restoreAllShapes("restores of the rewritten store")
	if backend == FileBackend && loans.ranged.Load() == 0 {
		t.Fatal("no file-backend restore read into a buffer lent with ranges")
	}
}
