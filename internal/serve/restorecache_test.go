package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro"
	"repro/internal/blockstore"
)

// TestConcurrentRestoresSingleFlight is the serve-level guard for the shared
// sealed-container cache: many tenants restore overlapping backups
// concurrently through the HTTP layer, and the backend — instrumented with a
// Counting wrapper at the blockstore seam — must see each hot container's
// data section fetched exactly once. Every response must still be
// byte-identical to the ingested stream. Run under -race this also covers
// cache/pipeline concurrency end to end.
func TestConcurrentRestoresSingleFlight(t *testing.T) {
	var counting *blockstore.Counting
	_, _, ts := newTestServer(t,
		repro.Options{
			Engine:            repro.DeFrag,
			Alpha:             0.1,
			StoreData:         true,
			RestoreCacheBytes: 64 << 20,
			WrapBackend: func(be blockstore.Backend) blockstore.Backend {
				counting = blockstore.NewCounting(be)
				return counting
			},
		},
		Config{MaxTenantInflight: 4, MaxTotalInflight: 32})

	// Two generations per tenant: sibling generations share chunks, so the
	// second generation's restore is fragmented across containers the first
	// also touches — exactly the hot-container overlap the cache dedups.
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
	counting.ResetCounts()

	// Every tenant restores every generation, several times over, all at
	// once, through the full parallel path (coalesced fetch + decode pool).
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, tenants*gens*rounds)
	for r := 0; r < rounds; r++ {
		for tn := 0; tn < tenants; tn++ {
			for g := 0; g < gens; g++ {
				wg.Add(1)
				go func(tn, g int) {
					defer wg.Done()
					label := fmt.Sprintf("t%d/g%02d", tn, g)
					url := fmt.Sprintf("%s/v1/backups/%s/restore?mode=pipelined&verify=1",
						ts.URL, label)
					resp, err := http.Get(url)
					if err != nil {
						errs <- err
						return
					}
					got, err := io.ReadAll(resp.Body)
					resp.Body.Close() //nolint:errcheck // read fully
					if err != nil {
						errs <- fmt.Errorf("%s: %v", label, err)
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("%s: %s: %s", label, resp.Status, got)
						return
					}
					if !bytes.Equal(got, streams[tn][g]) {
						errs <- fmt.Errorf("%s: restored bytes differ (%d vs %d)",
							label, len(got), len(streams[tn][g]))
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

	// Single-flight at the physical seam: every data-section fetch the
	// backend saw corresponds to exactly one cache miss, i.e. each hot
	// container was read once no matter how many streams wanted it.
	var view StatsView
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck // test teardown
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.RestoreCache == nil {
		t.Fatal("/v1/stats: restoreCache missing despite configured budget")
	}
	cs := *view.RestoreCache
	if cs.Misses == 0 || cs.Hits+cs.Waits == 0 {
		t.Fatalf("cache never exercised: %+v", cs)
	}
	reads := counting.DataSectionReads()
	if reads != int64(cs.Misses) {
		t.Fatalf("backend fetched %d data sections for %d cache misses — single-flight broken (%+v)",
			reads, cs.Misses, cs)
	}
	if max := int64(view.Storage.Containers); reads > max {
		t.Fatalf("backend fetched %d sections, more than the %d sealed containers", reads, max)
	}
}
