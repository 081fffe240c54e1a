// Package serve exposes a repro.Store as a streaming multi-tenant HTTP
// service: the network front end of the dedup engines.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/backups/{label}          ingest: chunked request body → Store.IngestStream (409 when the label is taken)
//	GET    /v1/backups                  list retained backups
//	GET    /v1/backups/{label}          one backup's stats
//	GET    /v1/backups/{label}/restore  restore: streamed response body (?mode=&verify=)
//	DELETE /v1/backups/{label}          forget
//	POST   /v1/compact                  garbage-collect (?threshold=)
//	POST   /v1/check                    fsck (?verify=)
//	POST   /v1/repair                   quarantine invariant-failing containers (?verify=)
//	GET    /v1/stats                    storage + server statistics (incl. stage timings + SLOs)
//	GET    /healthz                     liveness
//	GET    /metrics                     Prometheus exposition (telemetry Default registry)
//	GET    /debug/traces                tail-captured slow/errored request span trees
//	GET    /debug/snapshot, /debug/pprof/*  further telemetry surface
//
// Streaming requests may carry a W3C `traceparent` header; the server joins
// the caller's trace (its serve.ingest/serve.restore span tree becomes a
// child of the client span) and echoes its own position back in the
// response's traceparent header.
//
// Labels may contain slashes (the workload generator's "u0/g01" shape); the
// "/restore" suffix is reserved and routed to the restore handler.
//
// Multi-tenancy: every request carries a tenant identity in the X-Tenant
// header (default "default"). Each tenant gets an independent in-flight
// ingest budget and an optional token-bucket bandwidth cap; exceeding the
// in-flight budget (or the server-wide one) returns 429 with a Retry-After
// hint — the client owns the backoff, the server never queues uploads.
// Concurrent uploads from all tenants multiplex onto the engine's
// multi-stream ingest path via Store.IngestStream, each as its own
// simulated-clock lane.
//
// Maintenance is gated inside the Store itself: foreground streams hold the
// store's maintenance lock for read; maintenance epochs (POST
// /v1/maintenance, or the background scheduler) and compaction (POST
// /v1/compact) run concurrently with traffic and take it for write only for
// each short remap-and-drop commit; repair takes it for write for its whole
// run.
//
// Shutdown drains: new work is refused with 503, in-flight ingest contexts
// are cancelled so engines abort at the next segment boundary (the
// cancelled-ingest path — sealed containers stay sealed, the index flushes,
// the store is fsck-clean), and handlers are waited for.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/telemetry"
)

// Telemetry: the serve.* surface on the PR-1 /metrics endpoint.
var (
	telIngests = telemetry.NewCounter(telemetry.Name("serve_requests_total", "route", "ingest"),
		"HTTP requests, by route")
	telRestoreReqs = telemetry.NewCounter(telemetry.Name("serve_requests_total", "route", "restore"), "")
	telAdminReqs   = telemetry.NewCounter(telemetry.Name("serve_requests_total", "route", "admin"), "")
	telRejected    = telemetry.NewCounter("serve_backpressure_429_total",
		"ingest requests refused because an in-flight limit was reached")
	telErrors = telemetry.NewCounter("serve_http_errors_total",
		"requests that finished with a 4xx/5xx status (429s counted separately)")
	telIngestBytes = telemetry.NewCounter("serve_ingest_bytes_total",
		"logical bytes accepted over HTTP ingest")
	telRestoreBytes = telemetry.NewCounter("serve_restore_bytes_total",
		"bytes streamed out of HTTP restores")
	telInflight = telemetry.NewGauge("serve_inflight_requests",
		"requests currently being served")
	telIngestSeconds = telemetry.NewHistogram("serve_ingest_seconds",
		"wall-clock seconds per HTTP ingest",
		[]float64{0.001, 0.005, 0.02, 0.1, 0.5, 2, 10, 60})
)

// Config parameterizes a Server.
type Config struct {
	// Store is the open store to serve. The server does not close it.
	Store *repro.Store
	// MaxTenantInflight caps concurrent ingests per tenant (default 4);
	// the cap'th+1 concurrent upload gets 429.
	MaxTenantInflight int
	// MaxTotalInflight caps concurrent ingests server-wide (default 32).
	MaxTotalInflight int
	// TenantBandwidth throttles each tenant's aggregate upload rate in
	// bytes/second through a token bucket. 0 means unthrottled.
	TenantBandwidth float64
	// RestoreVerify forces fingerprint verification on every restore
	// regardless of the request's ?verify= (requires a data-storing store).
	RestoreVerify bool
	// OnIngest, when set, runs after each successfully committed ingest
	// with the total committed so far. dedupd wires its -crash.after
	// machinery (die without closing the store, for recovery testing)
	// through this hook.
	OnIngest func(completed int)
}

func (c Config) withDefaults() Config {
	if c.MaxTenantInflight <= 0 {
		c.MaxTenantInflight = 4
	}
	if c.MaxTotalInflight <= 0 {
		c.MaxTotalInflight = 32
	}
	return c
}

// Server is the HTTP front end. It implements http.Handler; run it under
// any http.Server. Use Shutdown for a graceful drain.
type Server struct {
	cfg   Config
	store *repro.Store
	mux   *http.ServeMux

	base     context.Context // cancelled by Shutdown: aborts in-flight ingests
	cancel   context.CancelFunc
	wg       sync.WaitGroup // in-flight request handlers
	limits   *limiter
	slo      *sloTracker
	mu       sync.Mutex
	draining bool
	ingested int                 // successful ingests, for the OnIngest hook
	taken    map[string]struct{} // labels with an ingest in flight
}

// New builds a Server over an open store.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		store:  cfg.Store,
		base:   base,
		cancel: cancel,
		limits: newLimiter(cfg.MaxTenantInflight, cfg.MaxTotalInflight, cfg.TenantBandwidth),
		slo:    newSLOTracker(),
		taken:  map[string]struct{}{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/backups/", s.handleIngest)
	mux.HandleFunc("GET /v1/backups/", s.handleBackupGet)
	mux.HandleFunc("DELETE /v1/backups/", s.handleForget)
	mux.HandleFunc("GET /v1/backups", s.handleList)
	mux.HandleFunc("GET /v1/backups/{$}", s.handleList)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	mux.HandleFunc("POST /v1/maintenance", s.handleMaintenance)
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/repair", s.handleRepair)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// The observability surface rides on the service port too, so a loadgen
	// run (or an operator with one address) can scrape /metrics and pull
	// /debug/traces without the separate -telemetry listener.
	th := telemetry.Default().Handler()
	mux.Handle("GET /metrics", th)
	mux.Handle("GET /debug/", th)
	s.mux = mux
	return s
}

// statusRecorder captures the response status for SLO accounting and logs.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.code = code
	sr.ResponseWriter.WriteHeader(code)
}

// observed reports whether a request path counts against the service SLOs
// (the observability and liveness surface does not).
func observed(path string) bool {
	return !strings.HasPrefix(path, "/debug/") &&
		path != "/metrics" && path != "/healthz"
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	telInflight.Add(1)
	defer telInflight.Add(-1)
	if !observed(r.URL.Path) {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	// Deferred so that a handler which aborts its response by panicking
	// (restore, after a mid-stream failure) is still recorded and logged —
	// as a 500, whatever status line had already gone out.
	code := http.StatusInternalServerError
	defer func() { s.observe(r, code, time.Since(start)) }()
	s.mux.ServeHTTP(sr, r)
	code = sr.code
}

// observe records one finished request against the SLOs and the request log.
func (s *Server) observe(r *http.Request, code int, dur time.Duration) {
	ten := tenant(r)
	s.slo.Record(ten, code, dur)

	attrs := []any{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("tenant", ten),
		slog.Int("status", code),
		slog.Duration("dur", dur),
	}
	if tid, sid, ok := telemetry.ParseTraceParent(r.Header.Get("traceparent")); ok {
		_ = sid
		attrs = append(attrs, slog.String("trace", tid.String()))
	}
	switch {
	case code >= 500:
		telemetry.Logger().Warn("request failed", attrs...)
	case code >= 400:
		telemetry.Logger().Debug("request rejected", attrs...)
	default:
		telemetry.Logger().Debug("request", attrs...)
	}
}

// Shutdown drains the server: new requests are refused with 503, in-flight
// ingests are cancelled (they abort at the next segment boundary, leaving
// the store fsck-clean), and all handlers are waited for until ctx expires.
// The store itself stays open; the caller closes it after Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// enter registers a request with the drain tracker; it reports false (and
// writes 503) when the server is draining.
func (s *Server) enter(w http.ResponseWriter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return false
	}
	s.wg.Add(1)
	return true
}

// label extracts the backup label from a /v1/backups/… path.
func label(r *http.Request) string {
	return strings.TrimPrefix(r.URL.Path, "/v1/backups/")
}

func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// joinContext derives a context cancelled when either ctx (normally the
// request context, possibly already carrying trace identity) or the server's
// drain context is done.
func (s *Server) joinContext(ctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.base, cancel)
	return ctx, func() { stop(); cancel() }
}

// traceContext returns the request context joined to the client's W3C
// traceparent, if the header carries a valid one: the server-side span tree
// then hangs off the caller's trace instead of starting a fresh one.
func traceContext(r *http.Request) context.Context {
	ctx := r.Context()
	if tid, sid, ok := telemetry.ParseTraceParent(r.Header.Get("traceparent")); ok {
		ctx = telemetry.ContextWithRemoteParent(ctx, tid, sid)
	}
	return ctx
}

// startRequestSpan opens the handler-level span for a streaming route and
// echoes the server's trace position back in the response traceparent
// header (before the body commits it).
func startRequestSpan(w http.ResponseWriter, r *http.Request, name, lbl, ten string) (context.Context, *telemetry.Span) {
	ctx, span := telemetry.StartSpan(traceContext(r), name)
	if span != nil {
		span.SetAttr("label", lbl)
		span.SetAttr("tenant", ten)
		w.Header().Set("traceparent", telemetry.FormatTraceParent(span.Trace(), span.ID()))
	}
	return ctx, span
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	if code != http.StatusTooManyRequests {
		telErrors.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck // best-effort error body
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // response already committed
}

// BackupInfo is the wire form of one retained backup.
type BackupInfo struct {
	Label     string            `json:"label"`
	Chunks    int               `json:"chunks"`
	Fragments int               `json:"fragments"`
	Stats     repro.BackupStats `json:"stats"`
}

func backupInfo(b *repro.Backup) BackupInfo {
	return BackupInfo{Label: b.Label, Chunks: b.Chunks(), Fragments: b.Fragments(), Stats: b.Stats}
}

// claim reserves lbl for one ingest, or reports false: a backup of that name is
// committed or another upload of it is in flight. (The store itself refuses a
// label it retains, ErrLabelRetained; but two concurrent uploads of a new label
// would both be ingested in full before the second is refused at commit.) A
// claim is given up only after its ingest has committed or failed, so of
// concurrent uploads of one new label exactly one is ingested.
func (s *Server) claim(lbl string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, inflight := s.taken[lbl]; inflight || s.store.FindBackup(lbl) != nil {
		return false
	}
	s.taken[lbl] = struct{}{}
	return true
}

func (s *Server) unclaim(lbl string) {
	s.mu.Lock()
	delete(s.taken, lbl)
	s.mu.Unlock()
}

// handleIngest streams the request body into the store under the tenant's
// in-flight and bandwidth budgets. A label that is taken is a 409, answered
// before any of the body is read.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	telIngests.Inc()
	lbl := label(r)
	if lbl == "" {
		httpError(w, http.StatusBadRequest, "missing backup label")
		return
	}
	if strings.HasSuffix(lbl, "/restore") {
		httpError(w, http.StatusBadRequest, "label suffix %q is reserved", "/restore")
		return
	}
	if !s.claim(lbl) {
		// Without this net/http drains up to 256 KiB of an unread body before
		// it sends the status; a backup nobody will keep is not worth reading.
		w.Header().Set("Connection", "close")
		httpError(w, http.StatusConflict, "backup %q already exists", lbl)
		return
	}
	defer s.unclaim(lbl)
	ten := tenant(r)
	release, ok := s.limits.acquire(ten)
	if !ok {
		telRejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"tenant %q at its in-flight ingest limit", ten)
		return
	}
	defer release()
	if !s.enter(w) {
		return
	}
	defer s.wg.Done()

	sctx, span := startRequestSpan(w, r, "serve.ingest", lbl, ten)
	defer span.End()
	ctx, cancel := s.joinContext(sctx)
	defer cancel()
	start := time.Now()
	body := s.limits.throttle(ctx, ten, r.Body)
	b, err := s.store.IngestStream(ctx, lbl, body)
	telIngestSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		span.SetError(err)
		if ctx.Err() != nil {
			// Cancelled by client disconnect or drain: the engine aborted at
			// a segment boundary and the store is consistent; 499-style.
			httpError(w, http.StatusServiceUnavailable, "ingest cancelled: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "ingest failed: %v", err)
		return
	}
	span.SetAttr("bytes", b.Stats.LogicalBytes)
	telIngestBytes.Add(b.Stats.LogicalBytes)
	writeJSON(w, http.StatusCreated, backupInfo(b))
	if s.cfg.OnIngest != nil {
		s.mu.Lock()
		s.ingested++
		n := s.ingested
		s.mu.Unlock()
		s.cfg.OnIngest(n)
	}
}

// restoreOptions parses ?mode=&verify= into RestoreOptions.
// No mode is the store's default shape; pipelined is OPT with coalesced
// reads; anything else is a policy name.
func restoreOptions(r *http.Request, forceVerify bool) (repro.RestoreOptions, error) {
	q := r.URL.Query()
	opts := repro.DefaultRestoreOptions()
	opts.Verify = forceVerify || q.Get("verify") == "1" || q.Get("verify") == "true"
	switch mode := q.Get("mode"); mode {
	case "":
	case "pipelined":
		opts.Policy = repro.RestoreOPT
		opts.Coalesce = true
	default:
		p, err := repro.ParseRestorePolicy(mode)
		if err != nil {
			return opts, err
		}
		opts.Policy = p
	}
	return opts, nil
}

// handleBackupGet serves both GET /v1/backups/{label} (stats) and
// GET /v1/backups/{label}/restore (streamed content).
func (s *Server) handleBackupGet(w http.ResponseWriter, r *http.Request) {
	lbl := label(r)
	if rest, ok := strings.CutSuffix(lbl, "/restore"); ok {
		s.restore(w, r, rest)
		return
	}
	telAdminReqs.Inc()
	b := s.store.FindBackup(lbl)
	if b == nil {
		httpError(w, http.StatusNotFound, "no backup %q", lbl)
		return
	}
	writeJSON(w, http.StatusOK, backupInfo(b))
}

// restoreWriteBuffer sits between the restore engine, which emits one chunk
// (~8 KiB) per Write, and the ResponseWriter, whose own 4 KiB buffer would
// turn every chunk into a socket write: 256 KiB per write keeps the syscall
// count two orders of magnitude below the chunk count.
const restoreWriteBuffer = 256 << 10

// countingWriter tallies the bytes a restore has handed to the
// ResponseWriter — zero means nothing of the response is committed yet.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) restore(w http.ResponseWriter, r *http.Request, lbl string) {
	telRestoreReqs.Inc()
	if !s.enter(w) {
		return
	}
	defer s.wg.Done()
	b := s.store.FindBackup(lbl)
	if b == nil {
		httpError(w, http.StatusNotFound, "no backup %q", lbl)
		return
	}
	opts, err := restoreOptions(r, s.cfg.RestoreVerify)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sctx, span := startRequestSpan(w, r, "serve.restore", lbl, tenant(r))
	defer span.End()
	ctx, cancel := s.joinContext(sctx)
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Backup-Label", b.Label)
	// A declared length is what lets the client tell a complete stream from
	// one the server gave up on.
	h.Set("Content-Length", strconv.FormatInt(b.Stats.LogicalBytes, 10))
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, restoreWriteBuffer)
	_, err = s.store.RestoreWith(ctx, b, bw, opts)
	if err == nil {
		err = bw.Flush()
	}
	span.SetAttr("bytes", cw.n)
	telRestoreBytes.Add(cw.n)
	if err == nil {
		return
	}
	span.SetError(err)
	if cw.n == 0 {
		// Nothing has reached the ResponseWriter (what the engine produced
		// is still in bw, and stays there), so a clean error status is
		// still possible.
		h.Del("Content-Length")
		httpError(w, http.StatusInternalServerError, "restore failed: %v", err)
		return
	}
	// The status line and part of the body are out. Returning normally would
	// end the response as if it were whole; abort the connection instead, so
	// the client reads an unexpected EOF short of Content-Length.
	telErrors.Inc()
	panic(http.ErrAbortHandler)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	telAdminReqs.Inc()
	bs := s.store.Backups()
	out := make([]BackupInfo, len(bs))
	for i, b := range bs {
		out[i] = backupInfo(b)
	}
	writeJSON(w, http.StatusOK, out)
}

// admin runs one administrative operation. Gating against concurrent
// streams is the Store's business: Repair excludes everything for its whole
// run, maintenance epochs and Compact only for each drop commit.
func (s *Server) admin(w http.ResponseWriter, fn func() (any, error)) {
	telAdminReqs.Inc()
	if !s.enter(w) {
		return
	}
	defer s.wg.Done()
	v, err := fn()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleForget(w http.ResponseWriter, r *http.Request) {
	lbl := label(r)
	telAdminReqs.Inc()
	if !s.enter(w) {
		return
	}
	defer s.wg.Done()
	res := s.store.Forget(lbl)
	if !res.Found {
		httpError(w, http.StatusNotFound, "no backup %q", lbl)
		return
	}
	if res.Error != "" {
		httpError(w, http.StatusInternalServerError, "backup %q is still retained: %s", lbl, res.Error)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Forgotten string `json:"forgotten"`
		repro.ForgetResult
	}{lbl, res})
}

// handleMaintenance runs one maintenance epoch (reverse remap + container
// merge) and returns its statistics. Safe under live traffic, as is
// handleCompact; a drain or a gone client stops either at its next
// cancellation point.
func (s *Server) handleMaintenance(w http.ResponseWriter, r *http.Request) {
	s.admin(w, func() (any, error) {
		ctx, cancel := s.joinContext(r.Context())
		defer cancel()
		return s.store.MaintenanceEpoch(ctx)
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	threshold := 0.5
	if t := r.URL.Query().Get("threshold"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v <= 0 || v > 1 {
			httpError(w, http.StatusBadRequest, "bad threshold %q", t)
			return
		}
		threshold = v
	}
	s.admin(w, func() (any, error) {
		ctx, cancel := s.joinContext(r.Context())
		defer cancel()
		return s.store.Compact(ctx, threshold)
	})
}

func verifyParam(r *http.Request) bool {
	v := r.URL.Query().Get("verify")
	return v == "1" || v == "true"
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	verify := verifyParam(r)
	s.admin(w, func() (any, error) {
		return s.store.Check(context.Background(), verify)
	})
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	verify := verifyParam(r)
	s.admin(w, func() (any, error) {
		return s.store.Repair(context.Background(), verify)
	})
}

// StatsView is the /v1/stats response. Stages is the always-on per-stage
// cumulative wall time of the pipeline (nanoseconds, process-wide: diff two
// reads to attribute the time between them); SLO is the per-tenant SLI/SLO
// summary.
type StatsView struct {
	Engine        string           `json:"engine"`
	Backend       string           `json:"backend"`
	Storage       repro.StoreStats `json:"storage"`
	Backups       int              `json:"backups"`
	SimulatedSecs float64          `json:"simulatedSeconds"`
	Draining      bool             `json:"draining"`
	Tenants       map[string]int   `json:"tenantsInflight"`
	Stages        map[string]int64 `json:"stageNanos"`
	SLO           SLOView          `json:"slo"`
	// Maintenance is the online maintenance layer's cumulative counters
	// plus the store's current dead-byte accounting.
	Maintenance repro.MaintenanceReport `json:"maintenance"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	telAdminReqs.Inc()
	view := StatsView{
		Engine:        s.store.Engine(),
		Backend:       s.store.BackendName(),
		Storage:       s.store.Stats(),
		Backups:       len(s.store.Backups()),
		SimulatedSecs: s.store.SimulatedTime().Seconds(),
		Draining:      s.Draining(),
		Tenants:       s.limits.snapshot(),
		Stages:        telemetry.StageTotals(),
		SLO:           s.slo.View(),
	}
	view.Maintenance = s.store.MaintenanceReport()
	writeJSON(w, http.StatusOK, view)
}
