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
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/blockstore"
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

// TestForgetThatIsNotDurableIs500: on the file backend a forget is a catalog
// record, and a DELETE whose record could not be written answers 500 with the
// backup still there — not 200 and a backup that is back after a restart. On
// the way, /metrics shows the catalog's counters, gauges and stage clock.
func TestForgetThatIsNotDurableIs500(t *testing.T) {
	store, _, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true, Backend: repro.FileBackend, Dir: t.TempDir()},
		Config{})
	for _, label := range []string{"t0/g00", "t0/g01"} {
		resp := upload(t, ts.URL, "t0", label, tenantStreams(t, 8, 1)[0])
		resp.Body.Close() //nolint:errcheck // status only
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload: %s", resp.Status)
		}
	}
	forget := func(label string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/backups/"+label, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck // status only
		return resp.StatusCode
	}
	if got := forget("t0/g00"); got != http.StatusOK {
		t.Fatalf("forget: %d", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read to the end
	for _, want := range []string{
		`catalog_appends_total{kind="commit"}`, `catalog_appends_total{kind="forget"}`, `catalog_appends_total{kind="remap"}`,
		"catalog_checkpoints_total", "catalog_log_bytes", "catalog_live_bytes", `pipeline_stage_ns_total{stage="catalog_sync"}`,
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	// The store is closed under the server, as a DELETE racing a shutdown
	// finds it: the catalog takes no more records.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if got := forget("t0/g01"); got != http.StatusInternalServerError {
		t.Fatalf("forget with the catalog closed: %d, want 500", got)
	}
	if store.FindBackup("t0/g01") == nil {
		t.Fatal("the backup whose forget failed is gone")
	}
}

// gatedBody is a request body that holds its first Read until open is closed:
// a server that answers without reading it answers while it is still shut.
type gatedBody struct {
	open <-chan struct{}
	r    io.Reader
}

func (g *gatedBody) Read(p []byte) (int, error) {
	<-g.open
	return g.r.Read(p)
}

// TestIngestRefusesATakenLabel: the store finds backups by label, first match
// first, so a second backup under a committed label used to be accepted and
// never restored. It is a 409 now, answered before the body is read (the body
// here is not even sent until the answer is in), and the first backup is what
// restores. And of several uploads of one new label in flight at once exactly
// one commits, whichever the server saw first; the others are 409s, not
// further backups.
func TestIngestRefusesATakenLabel(t *testing.T) {
	store, _, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true},
		Config{})
	datas := tenantStreams(t, 9, 2)
	resp := upload(t, ts.URL, "t0", "t0/g00", datas[0])
	resp.Body.Close() //nolint:errcheck // status only
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}

	post := func(label string, data []byte, open <-chan struct{}) (int, error) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/backups/"+label,
			&gatedBody{open: open, r: bytes.NewReader(data)})
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close() //nolint:errcheck // status only
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}

	shut := make(chan struct{})
	answered := make(chan struct{})
	go func() {
		select {
		case <-answered:
		case <-time.After(10 * time.Second):
			t.Error("no answer to a duplicate label while its body is held back: the server wants to read it first")
		}
		close(shut)
	}()
	code, err := post("t0/g00", datas[1], shut)
	close(answered)
	if err != nil || code != http.StatusConflict {
		t.Fatalf("second POST of a committed label: %d, %v; want 409", code, err)
	}
	if n := len(store.Backups()); n != 1 {
		t.Fatalf("%d backups after a refused duplicate, want 1", n)
	}
	got, err := http.Get(ts.URL + "/v1/backups/t0/g00/restore")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(got.Body)
	got.Body.Close() //nolint:errcheck // fully read
	if err != nil || !bytes.Equal(body, datas[0]) {
		t.Fatalf("restore after the refused duplicate is not the first upload (%v)", err)
	}

	// Four uploads of one new label, none of which can finish until three
	// have been refused.
	const n = 4
	open := make(chan struct{})
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			code, err := post("t0/g01", datas[1], open)
			if err != nil {
				t.Errorf("concurrent POST: %v", err)
			}
			codes <- code
		}()
	}
	for i := 0; i < n-1; i++ {
		select {
		case code := <-codes:
			if code != http.StatusConflict {
				t.Fatalf("an upload racing another of the same label finished with %d while the bodies were held back, want 409", code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d racing uploads were refused", i, n-1)
		}
	}
	close(open)
	if code := <-codes; code != http.StatusCreated {
		t.Fatalf("the upload that was not refused finished with %d, want 201", code)
	}
	if n := len(store.Backups()); n != 2 {
		t.Fatalf("%d backups, want 2: the label must have been committed exactly once", n)
	}
	if b := store.FindBackup("t0/g01"); b == nil || b.Stats.LogicalBytes != int64(len(datas[1])) {
		t.Fatalf("the committed backup is not the whole upload: %+v", b)
	}
	// The label is free again once it is forgotten.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/backups/t0/g01", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close() //nolint:errcheck // status only
	resp = upload(t, ts.URL, "t0", "t0/g01", datas[0])
	resp.Body.Close() //nolint:errcheck // status only
	if del.StatusCode != http.StatusOK || resp.StatusCode != http.StatusCreated {
		t.Fatalf("forget, then upload again: %s, %s", del.Status, resp.Status)
	}
}

// ingestGenerations backs up gens generations of one user and returns the
// newest.
func ingestGenerations(t *testing.T, store *repro.Store, gens int) *repro.Backup {
	t.Helper()
	wcfg := workload.DefaultConfig(11)
	wcfg.NumFiles = 24
	sched, err := workload.NewSingle(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var newest *repro.Backup
	for g := 0; g < gens; g++ {
		b := sched.Next()
		if newest, err = store.Backup(context.Background(), b.Label, b.Stream); err != nil {
			t.Fatal(err)
		}
	}
	return newest
}

// TestRestoreIgnoresTheCacheParameter: a GET cannot size its restore's
// section set. ?cache=N is an unknown parameter like any other, so a restore
// asking for more containers than its recipe touches still reads what the
// default capacity reads, and holds no more sections than it does.
func TestRestoreIgnoresTheCacheParameter(t *testing.T) {
	var counting *blockstore.Counting
	// DDFS-like rewrites nothing, so twelve generations leave the newest
	// scattered over more containers than the default cache holds.
	store, _, ts := newTestServer(t, repro.Options{Engine: repro.DDFSLike, ExpectedBytes: 256 << 20,
		WrapBackend: func(be blockstore.Backend) blockstore.Backend {
			counting = blockstore.NewCounting(be)
			return counting
		}}, Config{})
	newest := ingestGenerations(t, store, 12)
	wide, err := store.RestoreWith(context.Background(), newest, nil,
		repro.RestoreOptions{CacheContainers: 100000, Policy: repro.RestoreOPT})
	if err != nil {
		t.Fatal(err)
	}
	reads := func(query string) int64 {
		t.Helper()
		counting.ResetCounts()
		resp, err := http.Get(ts.URL + "/v1/backups/" + newest.Label + "/restore" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck // read fully
		if _, err := io.Copy(io.Discard, resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET%s: %s, %v", query, resp.Status, err)
		}
		return counting.DataSectionReads()
	}
	def := reads("")
	if wide.ContainerReads >= def {
		t.Fatalf("a 100000-container cache reads %d sections, the default %d: the recipe cannot tell them apart", wide.ContainerReads, def)
	}
	if got := reads("?cache=100000"); got != def {
		t.Fatalf("GET ?cache=100000 read %d sections, without it %d", got, def)
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
	ctx := context.Background()
	newest := ingestGenerations(t, store, 6)
	const cache = 2
	reads := func(opts repro.RestoreOptions) int64 {
		t.Helper()
		rs, err := store.RestoreWith(ctx, newest, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rs.ContainerReads
	}
	lru := reads(repro.RestoreOptions{CacheContainers: cache, Policy: repro.RestoreLRU})
	opt := reads(repro.RestoreOptions{CacheContainers: cache, Policy: repro.RestoreOPT})
	faa := reads(repro.RestoreOptions{CacheContainers: cache, Policy: repro.RestoreFAA})
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
		r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/backups/%s/restore?mode=%s", newest.Label, mode), nil)
		opts, err := restoreOptions(r, false)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		opts.CacheContainers = cache
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

// blockingReads holds every data read, once armed, until its context ends or
// release closes, and says on reading when one begins.
type blockingReads struct {
	blockstore.Backend
	armed   atomic.Bool
	reading chan struct{}
	release chan struct{}
}

func (b *blockingReads) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	if b.armed.Load() {
		select {
		case b.reading <- struct{}{}:
		default:
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-b.release:
		}
	}
	return b.Backend.ReadDataRange(ctx, ids)
}

// TestCheckStopsWithItsRequest: a verifying /v1/check reads every container,
// and neither a client that goes away nor a drain may leave it reading. Over
// a backend whose reads block until their context ends, cancelling the
// request ends the check, and so does Shutdown for a second one.
func TestCheckStopsWithItsRequest(t *testing.T) {
	be := &blockingReads{reading: make(chan struct{}, 1), release: make(chan struct{})}
	store, srv, ts := newTestServer(t, repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true,
		WrapBackend: func(inner blockstore.Backend) blockstore.Backend {
			be.Backend = inner
			return be
		}}, Config{})
	t.Cleanup(func() { close(be.release) })
	if _, err := store.Backup(context.Background(), "g0", bytes.NewReader(tenantStreams(t, 3, 1)[0])); err != nil {
		t.Fatal(err)
	}
	be.armed.Store(true)

	check := func(ctx context.Context) chan error {
		done := make(chan error, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/check?verify=1", nil)
			if err == nil {
				var resp *http.Response
				if resp, err = http.DefaultClient.Do(req); err == nil {
					resp.Body.Close() //nolint:errcheck // status only
				}
			}
			done <- err
		}()
		return done
	}
	ctx, cancel := context.WithCancel(context.Background())
	gone := check(ctx)
	<-be.reading
	cancel()
	<-gone
	// The handler is done once a drain finds nothing in flight: with the
	// check still reading, Shutdown would wait out its deadline.
	drained := func(what string) {
		t.Helper()
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		if err := srv.Shutdown(dctx); err != nil {
			t.Fatalf("%s: the check is still reading: %v", what, err)
		}
	}
	drained("after the client went away")

	// A drained server refuses new requests, so the drain case runs on a
	// second server over the same store.
	srv = New(Config{Store: store})
	ts = httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	inflight := check(context.Background())
	<-be.reading
	drained("under a drain")
	<-inflight
}
