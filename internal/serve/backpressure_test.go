package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro"
	"repro/internal/maintenance"
)

// TestLimiterTable drives the admission ledger through its edge cases.
func TestLimiterTable(t *testing.T) {
	type step struct {
		tenant  string
		acquire bool // false = release the oldest held slot of that tenant
		wantOK  bool
	}
	cases := []struct {
		name      string
		perTenant int
		total     int
		steps     []step
	}{
		{
			name: "per-tenant cap", perTenant: 2, total: 10,
			steps: []step{
				{"a", true, true}, {"a", true, true},
				{"a", true, false}, // third concurrent ingest for a → refused
				{"b", true, true},  // other tenants unaffected
				{"a", false, true}, // release one
				{"a", true, true},  // slot is back
			},
		},
		{
			name: "global cap", perTenant: 10, total: 2,
			steps: []step{
				{"a", true, true}, {"b", true, true},
				{"c", true, false}, // server-wide budget exhausted
				{"a", false, true},
				{"c", true, true},
			},
		},
		{
			name: "release is idempotent per slot", perTenant: 1, total: 10,
			steps: []step{
				{"a", true, true},
				{"a", false, true}, // release runs the func twice (see below)
				{"a", true, true},
				{"a", true, false}, // cap still enforced afterwards
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLimiter(tc.perTenant, tc.total, 0)
			held := map[string][]func(){}
			for i, st := range tc.steps {
				if st.acquire {
					release, ok := l.acquire(st.tenant)
					if ok != st.wantOK {
						t.Fatalf("step %d: acquire(%s) ok=%v, want %v", i, st.tenant, ok, st.wantOK)
					}
					if ok {
						held[st.tenant] = append(held[st.tenant], release)
					}
				} else {
					rs := held[st.tenant]
					if len(rs) == 0 {
						t.Fatalf("step %d: nothing to release for %s", i, st.tenant)
					}
					rs[0]() // releasing the same slot again must be a no-op
					rs[0]()
					held[st.tenant] = rs[1:]
				}
			}
		})
	}
}

// TestBucketThrottle checks the token bucket paces past its burst and
// honors cancellation.
func TestBucketThrottle(t *testing.T) {
	b := maintenance.NewThrottle(1 << 20) // 1 MiB/s, 1 MiB burst, starts full
	if err := b.Wait(context.Background(), 1<<20); err != nil {
		t.Fatal(err) // the burst is free
	}
	start := time.Now()
	if err := b.Wait(context.Background(), 256<<10); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 150*time.Millisecond {
		t.Fatalf("drained bucket refilled 256KiB in %v, want ≥150ms at 1MiB/s", el)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Wait(ctx, 10<<20); err == nil {
		t.Fatal("wait with cancelled context must fail")
	}
}

// TestThrottleBelowOneBite: a bandwidth under the reader's 64 KiB bite still
// lets the bite through, the bucket going into debt for it; a bucket that
// waited for a bite's worth of tokens never got them past its one-second
// burst, and the upload stood still until its context ended.
func TestThrottleBelowOneBite(t *testing.T) {
	l := newLimiter(1, 1, 32<<10) // 32 KiB/s: a bite is two seconds' worth
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r := l.throttle(ctx, "t", bytes.NewReader(make([]byte, 64<<10)))
	start := time.Now()
	if n, err := r.Read(make([]byte, 64<<10)); n != 64<<10 || err != nil {
		t.Fatalf("read %d bytes, %v", n, err)
	}
	if el := time.Since(start); el < 500*time.Millisecond {
		t.Fatalf("a bite of twice the burst went through in %v, want about a second", el)
	}
}

// occupy starts an upload whose body never finishes, and blocks until the
// server has admitted it (one in-flight slot held). It returns the response
// channel and the pipe writer that completes or aborts the upload.
func occupy(t *testing.T, srv *Server, base, tenant, label string) (chan *http.Response, *io.PipeWriter) {
	t.Helper()
	pr, pw := io.Pipe()
	respCh := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/backups/"+label, pr)
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			respCh <- nil
			return
		}
		respCh <- resp
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.limits.snapshot()[tenant] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("upload for %s never acquired a slot", tenant)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return respCh, pw
}

// TestServe429Backpressure exercises the per-tenant and global in-flight
// limits end to end: the cap'th+1 concurrent upload is refused with 429 and
// a Retry-After hint, other tenants are unaffected, and the slot frees when
// the held upload completes.
func TestServe429Backpressure(t *testing.T) {
	_, srv, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true},
		Config{MaxTenantInflight: 1, MaxTotalInflight: 2})
	data := tenantStreams(t, 11, 1)[0]

	respCh, pw := occupy(t, srv, ts.URL, "t0", "t0/held")

	// Same tenant, second concurrent upload: 429 + Retry-After.
	resp := upload(t, ts.URL, "t0", "t0/rejected", data)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit upload: got %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}

	// A different tenant still fits (global cap 2, one slot used).
	resp = upload(t, ts.URL, "t1", "t1/ok", data)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("other tenant: got %s, want 201", resp.Status)
	}

	// Both slots now free except t0's held one; a third tenant trips the
	// global cap only while two uploads are genuinely in flight.
	respCh2, pw2 := occupy(t, srv, ts.URL, "t1", "t1/held")
	resp = upload(t, ts.URL, "t2", "t2/rejected", data)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("global over-limit upload: got %s, want 429", resp.Status)
	}

	// Complete the held uploads; their slots free and ingest succeeds.
	for i, fin := range []struct {
		pw *io.PipeWriter
		ch chan *http.Response
	}{{pw, respCh}, {pw2, respCh2}} {
		if _, err := fin.pw.Write(data); err != nil {
			t.Fatal(err)
		}
		fin.pw.Close() //nolint:errcheck // pipe
		r := <-fin.ch
		if r == nil {
			t.Fatalf("held upload %d: transport error", i)
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain
		r.Body.Close()              //nolint:errcheck // drained
		if r.StatusCode != http.StatusCreated {
			t.Fatalf("held upload %d: got %s, want 201", i, r.Status)
		}
	}
	resp = upload(t, ts.URL, "t0", "t0/after", data)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-release upload: got %s, want 201", resp.Status)
	}
}

// TestServeDrainMidIngest shuts the server down while an upload is mid
// stream: the ingest is aborted on the cancelled-ingest path, new requests
// get 503, and the reopened store is fsck-clean with the completed backup
// still restorable and the aborted one absent.
func TestServeDrainMidIngest(t *testing.T) {
	dir := t.TempDir()
	opts := repro.Options{
		Engine: repro.DeFrag, Alpha: 0.1, StoreData: true,
		Backend: repro.FileBackend, Dir: dir, ExpectedBytes: 64 << 20,
	}
	store, srv, ts := newTestServer(t, opts, Config{})
	data := tenantStreams(t, 21, 1)[0]

	resp := upload(t, ts.URL, "t0", "t0/done", data)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload: %s", resp.Status)
	}

	// Hold an upload mid-stream, keep bytes flowing so the pipeline reaches
	// segment boundaries (where cancellation is observed).
	respCh, pw := occupy(t, srv, ts.URL, "t0", "t0/aborted")
	stop := make(chan struct{})
	go func() {
		chunk := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				pw.CloseWithError(fmt.Errorf("drained")) //nolint:errcheck // pipe
				return
			default:
				if _, err := pw.Write(chunk); err != nil {
					return
				}
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	if r := <-respCh; r != nil {
		io.Copy(io.Discard, r.Body) //nolint:errcheck // drain
		r.Body.Close()              //nolint:errcheck // drained
		if r.StatusCode == http.StatusCreated {
			t.Fatal("mid-drain upload must not commit")
		}
	}

	// Post-drain requests are refused.
	resp = upload(t, ts.URL, "t0", "t0/late", data)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain upload: got %s, want 503", resp.Status)
	}

	// Close like the dedupd shutdown path, reopen, fsck, restore-verify.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := repro.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close() //nolint:errcheck // test teardown
	rep, err := re.Check(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store not fsck-clean after drain: %v", rep.Problems)
	}
	if re.FindBackup("t0/aborted") != nil {
		t.Fatal("aborted ingest must not be retained")
	}
	b := re.FindBackup("t0/done")
	if b == nil {
		t.Fatal("completed backup lost across drain")
	}
	if _, err := re.Restore(context.Background(), b, io.Discard, true); err != nil {
		t.Fatalf("restore-verify after drain: %v", err)
	}
}
