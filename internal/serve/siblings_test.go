package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro"
	"repro/internal/blockstore"
)

// TestConcurrentSiblingRestores: many tenants restore sibling generations
// off one file-backed store concurrently through the HTTP layer. Every
// response is byte-identical to the ingested stream, and every restore reads
// its own sections: the backend — instrumented with a Counting wrapper at the
// blockstore seam — serves exactly rounds × the sections the same restores
// read one at a time. Run under -race this also covers the restore pipeline's
// concurrency end to end.
func TestConcurrentSiblingRestores(t *testing.T) {
	var counting *blockstore.Counting
	_, _, ts := newTestServer(t,
		repro.Options{
			Engine:    repro.DeFrag,
			Alpha:     0.1,
			StoreData: true,
			Backend:   repro.FileBackend,
			Dir:       t.TempDir(),
			WrapBackend: func(be blockstore.Backend) blockstore.Backend {
				counting = blockstore.NewCounting(be)
				return counting
			},
		},
		Config{MaxTenantInflight: 4, MaxTotalInflight: 32})

	// Two generations per tenant: sibling generations share chunks, so the
	// second generation's restore is fragmented across containers the first
	// also touches.
	const tenants, gens = 3, 2
	streams := make([][][]byte, tenants)
	for tn := range streams {
		streams[tn] = tenantStreams(t, int64(7000+tn), gens)
		for g := 0; g < gens; g++ {
			label := fmt.Sprintf("t%d/g%02d", tn, g)
			resp := upload(t, ts.URL, fmt.Sprintf("t%d", tn), label, streams[tn][g])
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close() //nolint:errcheck // read fully
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s: %s: %s", label, resp.Status, body)
			}
		}
	}

	restore := func(tn, g int) error {
		label := fmt.Sprintf("t%d/g%02d", tn, g)
		resp, err := http.Get(fmt.Sprintf("%s/v1/backups/%s/restore?mode=pipelined&verify=1", ts.URL, label))
		if err != nil {
			return err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // read fully
		switch {
		case err != nil:
			return fmt.Errorf("%s: %v", label, err)
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("%s: %s: %s", label, resp.Status, got)
		case !bytes.Equal(got, streams[tn][g]):
			return fmt.Errorf("%s: restored bytes differ (%d vs %d)", label, len(got), len(streams[tn][g]))
		}
		return nil
	}
	counting.ResetCounts()
	for tn := 0; tn < tenants; tn++ {
		for g := 0; g < gens; g++ {
			if err := restore(tn, g); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial := counting.DataSectionReads()

	// Every tenant restores every generation, several times over, all at
	// once, through the full parallel path (coalesced fetch + decode pool).
	const rounds = 3
	counting.ResetCounts()
	var wg sync.WaitGroup
	errs := make(chan error, tenants*gens*rounds)
	for r := 0; r < rounds; r++ {
		for tn := 0; tn < tenants; tn++ {
			for g := 0; g < gens; g++ {
				wg.Add(1)
				go func(tn, g int) {
					defer wg.Done()
					if err := restore(tn, g); err != nil {
						errs <- err
					}
				}(tn, g)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := counting.DataSectionReads(); got != rounds*serial {
		t.Fatalf("%d concurrent restores read %d sections, want %d × the %d of one round", rounds*tenants*gens, got, rounds, serial)
	}
}
