package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/telemetry"
)

// TestTraceparentRoundTripHTTP uploads with a client-minted W3C traceparent
// and asserts (a) the response echoes a traceparent of the same trace, and
// (b) /debug/traces on the service port retains the request's span tree
// under that trace ID, with serve.ingest as the local root.
func TestTraceparentRoundTripHTTP(t *testing.T) {
	_, _, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true},
		Config{})

	// The tail ring lives on the shared Default registry; start its warmup
	// retention over so this request is deterministically retained.
	telemetry.Default().ResetTraces()

	traceID, spanID := telemetry.NewTraceID(), telemetry.NewSpanID()
	hdr := telemetry.FormatTraceParent(traceID, spanID)
	data := tenantStreams(t, 42, 1)[0]

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/backups/trace/gen0", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "trace")
	req.Header.Set("traceparent", hdr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}
	echo := resp.Header.Get("traceparent")
	etid, esid, ok := telemetry.ParseTraceParent(echo)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", echo)
	}
	if etid != traceID {
		t.Fatalf("response trace %s, want the request's %s", etid, traceID)
	}
	if esid == spanID {
		t.Fatal("response span ID must be the server's span, not an echo of the client's")
	}

	// The warmup retention policy guarantees early requests are in the ring.
	dresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close() //nolint:errcheck // read-only
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %s", dresp.Status)
	}
	var view telemetry.TracesView
	if err := json.NewDecoder(dresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	var tree *telemetry.RetainedTrace
	for i := range view.Traces {
		if view.Traces[i].Trace == traceID.String() {
			tree = &view.Traces[i]
		}
	}
	if tree == nil {
		t.Fatalf("trace %s not in /debug/traces (%d retained)", traceID, len(view.Traces))
	}
	if tree.Root != "serve.ingest" {
		t.Fatalf("retained root %q, want serve.ingest", tree.Root)
	}
	if len(tree.Spans) < 2 {
		t.Fatalf("retained tree has %d spans, want the full request tree", len(tree.Spans))
	}
	root := tree.Spans[len(tree.Spans)-1]
	if root.Parent != spanID.String() {
		t.Fatalf("server root parent %q, want the client span %s", root.Parent, spanID)
	}
	ids := map[string]bool{}
	for _, sp := range tree.Spans {
		ids[sp.ID] = true
	}
	names := map[string]bool{}
	for _, sp := range tree.Spans {
		names[sp.Name] = true
		if sp.Trace != traceID.String() {
			t.Fatalf("span %q in tree carries trace %s, want %s", sp.Name, sp.Trace, traceID)
		}
		if sp.ID != root.ID && !ids[sp.Parent] {
			t.Fatalf("span %q parent %q not in tree", sp.Name, sp.Parent)
		}
	}
	if !names["store.ingest_stream"] {
		t.Fatalf("tree spans %v missing store.ingest_stream", names)
	}
}

// TestStatsStagesAndSLO exercises /v1/stats' stage and SLO sections and the
// /metrics surface mounted on the service port.
func TestStatsStagesAndSLO(t *testing.T) {
	_, _, ts := newTestServer(t,
		repro.Options{Engine: repro.DeFrag, Alpha: 0.1, StoreData: true},
		Config{})

	data := tenantStreams(t, 7, 1)[0]
	resp := upload(t, ts.URL, "acme", "acme/gen0", data)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()              //nolint:errcheck // drained
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}
	// A client error must count as a request but not spend error budget.
	bresp, err := http.Get(ts.URL + "/v1/backups/nope-does-not-exist")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bresp.Body) //nolint:errcheck // drain
	bresp.Body.Close()              //nolint:errcheck // drained
	if bresp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing backup: %s", bresp.Status)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close() //nolint:errcheck // read-only
	var sv StatsView
	if err := json.NewDecoder(sresp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"chunk", "hash", "lookup"} {
		if sv.Stages[stage] <= 0 {
			t.Errorf("stage %q = %d ns after an ingest, want > 0 (stages: %v)", stage, sv.Stages[stage], sv.Stages)
		}
	}
	if sv.SLO.AvailabilityObjective != sloAvailabilityObjective {
		t.Fatalf("SLO objective %v, want %v", sv.SLO.AvailabilityObjective, sloAvailabilityObjective)
	}
	acme, ok := sv.SLO.Tenants["acme"]
	if !ok {
		t.Fatalf("SLO tenants %v missing acme", sv.SLO.Tenants)
	}
	if acme.Requests < 1 || acme.Errors != 0 || acme.Availability != 1 {
		t.Fatalf("acme SLI %+v, want >=1 requests, 0 errors, availability 1", acme)
	}
	if acme.ErrorBudgetRemaining != 1 || acme.BurnRate != 0 {
		t.Fatalf("acme budget %+v, want untouched budget and zero burn", acme)
	}
	if acme.LatencyP99 <= 0 {
		t.Fatalf("acme latency p99 %v, want > 0", acme.LatencyP99)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close() //nolint:errcheck // read-only
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body) //nolint:errcheck // test read
	body := buf.String()
	for _, want := range []string{
		"pipeline_stage_ns_total{stage=\"chunk\"}",
		"slo_requests_total{tenant=\"acme\"}",
		"slo_error_budget_burn_rate{tenant=\"acme\"}",
		"go_goroutines",
		"go_gc_pause_seconds",
		"build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSLOTrackerBudget drives the tracker directly: 5xx spends budget, 429
// does not, burn rate reflects the windowed error share.
func TestSLOTrackerBudget(t *testing.T) {
	tr := newSLOTracker()
	for i := 0; i < 999; i++ {
		tr.Record("t", 200, 0)
	}
	tr.Record("t", 500, 0)
	tr.Record("t", 429, 0)
	v := tr.View().Tenants["t"]
	if v.Requests != 1000 || v.Errors != 1 || v.Throttled != 1 {
		t.Fatalf("SLI %+v, want 1000 req / 1 err / 1 throttled", v)
	}
	if v.Availability != 1-1.0/1000 {
		t.Fatalf("availability %v", v.Availability)
	}
	// 1000 requests at objective 99.9% → budget exactly 1 error → spent.
	if v.ErrorBudgetRemaining > 1e-9 || v.ErrorBudgetRemaining < -1e-9 {
		t.Fatalf("budget remaining %v, want 0", v.ErrorBudgetRemaining)
	}
	// Window: 1 error in 1000 requests = rate 0.001 = exactly the budget
	// rate → burn 1.0.
	if v.BurnRate < 0.99 || v.BurnRate > 1.01 {
		t.Fatalf("burn rate %v, want ~1.0", v.BurnRate)
	}
}

// TestSLOTrackersCountApart: two trackers in one process (two servers, or
// one test run twice) each report only the requests they recorded, while
// the /metrics series they both feed add up.
func TestSLOTrackersCountApart(t *testing.T) {
	shared := telemetry.Default().Counter(telemetry.Name("slo_requests_total", "tenant", "shared"), "")
	before := shared.Value()
	a, b := newSLOTracker(), newSLOTracker()
	for i := 0; i < 3; i++ {
		a.Record("shared", 200, time.Second)
	}
	a.Record("shared", 500, time.Second)
	b.Record("shared", 429, time.Millisecond)
	b.Record("shared", 200, time.Millisecond)
	va, vb := a.View().Tenants["shared"], b.View().Tenants["shared"]
	if va.Requests != 4 || va.Errors != 1 || va.Throttled != 0 {
		t.Fatalf("first tracker %+v, want 4 requests, 1 error, 0 throttled", va)
	}
	if vb.Requests != 1 || vb.Errors != 0 || vb.Throttled != 1 {
		t.Fatalf("second tracker %+v, want 1 request, 0 errors, 1 throttled", vb)
	}
	if va.LatencyP50 < 0.5 || vb.LatencyP99 > 0.5 {
		t.Fatalf("latency leaked between trackers: p50 %v (want ~1 s), p99 %v (want ~1 ms)", va.LatencyP50, vb.LatencyP99)
	}
	if got := shared.Value() - before; got != 5 {
		t.Fatalf("slo_requests_total{tenant=\"shared\"} moved by %d, want 5", got)
	}
}
