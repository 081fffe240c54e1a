package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro"
	"repro/internal/workload"
)

// newTestServer opens a store and wraps it in an httptest server. The
// returned cleanup shuts both down.
func newTestServer(t *testing.T, opts repro.Options, cfg Config) (*repro.Store, *Server, *httptest.Server) {
	t.Helper()
	if opts.ExpectedBytes == 0 {
		opts.ExpectedBytes = 64 << 20
	}
	store, err := repro.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() }) //nolint:errcheck // test teardown
	cfg.Store = store
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return store, srv, ts
}

// tenantStream returns one generation's bytes for a seeded tenant workload.
func tenantStreams(t *testing.T, seed int64, gens int) [][]byte {
	t.Helper()
	cfg := workload.DefaultConfig(seed)
	cfg.NumFiles = 4
	cfg.MeanFileSize = 64 << 10
	sched, err := workload.NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, gens)
	for g := range out {
		data, err := io.ReadAll(sched.Next().Stream)
		if err != nil {
			t.Fatal(err)
		}
		out[g] = data
	}
	return out
}

func upload(t *testing.T, base, tenant, label string, data []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/backups/"+label, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeMultiTenantRoundTrip uploads several tenants concurrently over
// HTTP and restores every backup in every mode, requiring bit-identical
// content and a clean fsck.
func TestServeMultiTenantRoundTrip(t *testing.T) {
	_, _, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true},
		Config{MaxTenantInflight: 2, MaxTotalInflight: 16})

	const tenants, gens = 4, 2
	streams := make([][][]byte, tenants)
	for tn := range streams {
		streams[tn] = tenantStreams(t, int64(1000+tn), gens)
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants*gens)
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			for g := 0; g < gens; g++ {
				label := fmt.Sprintf("t%d/g%02d", tn, g)
				resp := upload(t, ts.URL, fmt.Sprintf("t%d", tn), label, streams[tn][g])
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close() //nolint:errcheck // read fully
				if resp.StatusCode != http.StatusCreated {
					errs <- fmt.Errorf("%s: %s: %s", label, resp.Status, body)
				}
			}
		}(tn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every backup, every restore mode, bit-identical.
	for tn := 0; tn < tenants; tn++ {
		for g := 0; g < gens; g++ {
			label := fmt.Sprintf("t%d/g%02d", tn, g)
			want := sha256.Sum256(streams[tn][g])
			for _, mode := range []string{"lru", "opt", "pipelined", "faa"} {
				resp, err := http.Get(fmt.Sprintf("%s/v1/backups/%s/restore?mode=%s&verify=1", ts.URL, label, mode))
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close() //nolint:errcheck // read fully
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("restore %s mode=%s: %s: %s", label, mode, resp.Status, got)
				}
				if sha256.Sum256(got) != want {
					t.Fatalf("restore %s mode=%s: content diverged (%d bytes)", label, mode, len(got))
				}
			}
		}
	}

	// List sees all backups; stats is coherent; fsck is clean.
	resp, err := http.Get(ts.URL + "/v1/backups")
	if err != nil {
		t.Fatal(err)
	}
	list, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read fully
	if n := bytes.Count(list, []byte(`"label"`)); n != tenants*gens {
		t.Fatalf("list has %d backups, want %d: %s", n, tenants*gens, list)
	}
	resp, err = http.Post(ts.URL+"/v1/check?verify=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read fully
	if resp.StatusCode != http.StatusOK || bytes.Contains(body, []byte(`"Problems":[`)) {
		t.Fatalf("check: %s: %s", resp.Status, body)
	}
}

func TestServeForgetAndErrors(t *testing.T) {
	_, _, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true},
		Config{})
	data := tenantStreams(t, 7, 1)[0]
	resp := upload(t, ts.URL, "t0", "t0/g00", data)
	resp.Body.Close() //nolint:errcheck // status only
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}

	// Restore of a missing label is 404; bad mode is 400.
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/backups/absent/restore", http.StatusNotFound},
		{"/v1/backups/t0/g00/restore?mode=bogus", http.StatusBadRequest},
		{"/v1/backups/t0/g00/restore?workers=-1", http.StatusBadRequest},
		{"/v1/backups/absent", http.StatusNotFound},
		{"/v1/backups/t0/g00", http.StatusOK},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // status only
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: got %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}

	// Forget drops the backup; a second forget fails.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/backups/t0/g00", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close() //nolint:errcheck // status only
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("forget: %s", resp2.Status)
	}
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close() //nolint:errcheck // status only
	if resp3.StatusCode == http.StatusOK {
		t.Fatal("second forget of the same label must fail")
	}

	// A label ending in the reserved /restore suffix is rejected at ingest.
	resp4 := upload(t, ts.URL, "t0", "weird/restore", data)
	resp4.Body.Close() //nolint:errcheck // status only
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("reserved-suffix label: got %s, want 400", resp4.Status)
	}
}

// TestRestoreModeSelectsThePolicy pins what each ?mode= asks the store for.
// "" is the store's default shape — forward-knowledge eviction — and "lru"
// must say LRU out loud: it used to select it by leaving the default alone,
// which would have turned it into OPT the day the default changed. Each
// mode's ContainerReads is compared with the explicit RestoreOptions it
// stands for (root TestFileRestoreReadGuard ties those to the
// planner), on a recipe where the two policies differ.
func TestRestoreModeSelectsThePolicy(t *testing.T) {
	store, _, _ := newTestServer(t, repro.Options{Engine: repro.DeFrag, Alpha: 0.1, ExpectedBytes: 256 << 20}, Config{})
	wcfg := workload.DefaultConfig(11)
	wcfg.NumFiles = 24
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var newest *repro.Backup
	for g := 0; g < 6; g++ {
		b := sched.Next()
		if newest, err = store.Backup(ctx, b.Label, b.Stream); err != nil {
			t.Fatal(err)
		}
	}
	const cache = 2
	reads := func(opts repro.RestoreOptions) int64 {
		t.Helper()
		rs, err := store.RestoreWith(ctx, newest, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rs.ContainerReads
	}
	lru := reads(repro.RestoreOptions{CacheContainers: cache, Policy: repro.RestoreLRU, Workers: 1})
	opt := reads(repro.RestoreOptions{CacheContainers: cache, Policy: repro.RestoreOPT, Workers: 1})
	faa := reads(repro.RestoreOptions{CacheContainers: cache, Policy: repro.RestoreFAA, Workers: 1})
	if opt >= lru || faa == opt || faa == lru {
		t.Fatalf("OPT-%d reads %d containers, LRU-%d %d, FAA-%d %d: the recipe cannot tell the modes apart", cache, opt, cache, lru, cache, faa)
	}
	for _, tc := range []struct {
		mode   string
		policy repro.RestorePolicy
		want   int64
	}{
		{"", repro.RestoreOPT, opt},
		{"lru", repro.RestoreLRU, lru},
		{"opt", repro.RestoreOPT, opt},
		{"pipelined", repro.RestoreOPT, opt},
		{"faa", repro.RestoreFAA, faa},
	} {
		mode, want := tc.mode, tc.want
		r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/backups/%s/restore?cache=%d&mode=%s", newest.Label, cache, mode), nil)
		opts, err := restoreOptions(r, false)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		if opts.Policy != tc.policy {
			t.Errorf("mode %q asks for policy %v, want %v", mode, opts.Policy, tc.policy)
		}
		rs, err := store.RestoreWith(ctx, newest, nil, opts)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		if rs.ContainerReads != want {
			t.Errorf("mode %q: %d container reads, want %d (lru %d, opt %d, faa %d)", mode, rs.ContainerReads, want, lru, opt, faa)
		}
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/backups/x/restore?mode=belady", nil)
	if _, err := restoreOptions(r, false); err == nil {
		t.Error("an unknown mode was accepted")
	}
}
