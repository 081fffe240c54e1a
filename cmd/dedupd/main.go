// Command dedupd serves a deduplicating backup store over HTTP: streaming
// multi-tenant ingest and restore on top of the repro engines, with
// per-tenant backpressure and graceful drain. It doubles as its own smoke
// client (-loadgen): seeded synthetic tenant streams replayed against a
// running server, every one of them restored, and a non-zero exit unless
// each comes back bit-identical.
//
// Server:
//
//	dedupd -addr 127.0.0.1:8080 -engine defrag -backend file -store.dir /tmp/st
//
// Endpoints: POST /v1/backups/{label}, GET /v1/backups[/{label}[/restore]],
// DELETE /v1/backups/{label}, POST /v1/compact|check|repair|maintenance,
// GET /v1/stats, GET /healthz. See README "Serving".
//
// SIGINT/SIGTERM triggers a graceful drain: new requests get 503, in-flight
// ingests are cancelled at a segment boundary (the store stays fsck-clean),
// then the store is closed.
//
// Smoke client (against an already-running server):
//
//	dedupd -loadgen -addr 127.0.0.1:8080 -loadgen.tenants 4 -loadgen.gens 3
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/blockstore"
	"repro/internal/cli"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() { cli.Main("dedupd", realMain) }

type serverParams struct {
	addr       string
	engineName string
	alpha      float64
	backend    string
	storeDir   string
	expectedGB float64
	storeData  bool

	tenantInflight int
	totalInflight  int
	tenantBWMBps   float64
	drainTimeout   time.Duration
	crashAfter     int
	// crashPoint arms a named blockstore crash point (see
	// internal/blockstore): the process exits uncleanly the next time the
	// backend passes it. Crash-recovery testing only.
	crashPoint string

	maint  repro.MaintenanceOptions
	filter repro.FilterOptions
}

func realMain() error {
	var (
		p       serverParams
		loadgen = flag.Bool("loadgen", false, "run as load-generating client instead of server")
		lg      loadgenParams

		telAddr   = flag.String("telemetry.addr", "", "serve live /metrics, /debug/snapshot and /debug/pprof on this address")
		telEvents = flag.String("telemetry.events", "", "write JSONL span events to this file")
	)
	flag.StringVar(&p.addr, "addr", "127.0.0.1:8080", "listen address (server) or target address (loadgen)")
	flag.StringVar(&p.engineName, "engine", "defrag", "engine: defrag, ddfs, silo, sparse, idedup")
	flag.Float64Var(&p.alpha, "alpha", 0.1, "DeFrag SPL threshold α")
	flag.StringVar(&p.backend, "backend", "sim", "storage backend: sim (in-memory) or file (durable directory store)")
	flag.StringVar(&p.storeDir, "store.dir", "", "file backend root directory (required for -backend file)")
	flag.Float64Var(&p.expectedGB, "expected.gb", 1, "expected total ingest in GiB (sizes caches, Bloom filter, index)")
	flag.BoolVar(&p.storeData, "store.data", true, "store real chunk bytes so restores return content (disable for timing-only runs)")
	flag.IntVar(&p.tenantInflight, "tenant.inflight", 4, "max concurrent ingests per tenant before 429")
	flag.IntVar(&p.totalInflight, "max.inflight", 32, "max concurrent ingests server-wide before 429")
	flag.Float64Var(&p.tenantBWMBps, "tenant.bw.mbps", 0, "per-tenant aggregate upload bandwidth cap in MB/s (0 = unlimited)")
	flag.DurationVar(&p.drainTimeout, "drain.timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	flag.IntVar(&p.crashAfter, "crash.after", 0, "exit without closing the store after N committed ingests (crash-recovery testing, like dedupsim's)")
	flag.StringVar(&p.crashPoint, "crash.point", "", "arm a named blockstore crash point (merge-remapped, merge-intent, merge-files, seal-data); the process exits uncleanly when the backend passes it (crash-recovery testing)")
	flag.BoolVar(&p.maint.Enabled, "maintenance.enabled", false, "start the online maintenance layer (reverse-rewriting re-dedup + container merge) with the store")
	flag.DurationVar(&p.maint.Interval, "maintenance.interval", 0, "background maintenance epoch period (0 = on-demand only, via POST /v1/maintenance)")
	flag.Float64Var(&p.maint.UtilThreshold, "maintenance.util", 0, "merge sealed containers with live fraction below this (0 = default 0.5)")
	flag.Float64Var(&p.maint.FillThreshold, "maintenance.fill", 0, "reverse-remap from containers filled below this fraction (0 = default 0.5)")
	flag.Float64Var(&p.maint.SparseThreshold, "maintenance.sparse", 0, "merge containers the latest backup uses below this fraction (0 = default 0.25)")
	flag.IntVar(&p.maint.MaxBatch, "maintenance.batch", 0, "max containers merged per maintenance epoch (0 = default 8)")
	flag.Float64Var(&p.maint.ThrottleMBps, "maintenance.throttle.mbps", 0, "wall-clock pacing of maintenance data movement in MB/s (0 = unthrottled)")
	flag.BoolVar(&p.filter.Enabled, "filter", false, "enable the prioritized inline filter (DeFrag): poorly clustered streams write through, maintenance re-dedups the spill")
	flag.IntVar(&p.filter.Probation, "filter.probation", 0, "chunks observed per stream before the filter verdict (0 = default 256)")
	flag.Float64Var(&p.filter.MinDupFraction, "filter.mindup", 0, "spill streams with a duplicate share below this (0 = default 0.05)")
	flag.Float64Var(&p.filter.MinClusterScore, "filter.mincluster", 0, "spill streams with a clustered-duplicate share below this (0 = default 0.5)")

	flag.IntVar(&lg.tenants, "loadgen.tenants", 4, "loadgen: concurrent tenant streams")
	flag.IntVar(&lg.gens, "loadgen.gens", 3, "loadgen: backup generations per tenant")
	flag.IntVar(&lg.files, "loadgen.files", 16, "loadgen: files per tenant file system")
	flag.Int64Var(&lg.fileKB, "loadgen.filekb", 256, "loadgen: mean file size in KiB")
	flag.Int64Var(&lg.seed, "seed", 1, "loadgen: workload seed")
	flag.StringVar(&lg.scenario, "loadgen.scenario", "backup", "loadgen: per-tenant workload scenario: backup, primary, workspace, or mixed (rotate tenants across all three)")
	flag.StringVar(&lg.out, "loadgen.out", "", "loadgen: also write the per-operation trajectory (JSON) to this file (empty = print the summary line only)")
	flag.StringVar(&lg.mode, "loadgen.restore.mode", "pipelined", "loadgen: restore mode to verify with (lru, opt, pipelined, faa)")
	flag.BoolVar(&lg.skipRestore, "loadgen.norestore", false, "loadgen: skip the restore+verify phase")

	logLevel := flag.String("log.level", "info", "structured log level: debug, info, warn, error")
	noTracing := flag.Bool("tracing.off", false, "disable span tracing (stage counters stay on)")
	flag.Parse()

	telemetry.SetLogLevel(telemetry.ParseLogLevel(*logLevel))
	if *noTracing {
		telemetry.SetTracing(false)
	}
	ep, err := telemetry.StartEndpoint(*telAddr, *telEvents)
	if err != nil {
		return err
	}
	defer ep.Close()
	if a := ep.Addr(); a != "" {
		telemetry.Logger().Info("telemetry endpoint up", "url", "http://"+a+"/metrics")
	}
	if *loadgen {
		lg.addr = p.addr
		return runLoadgen(lg)
	}
	return runServer(p)
}

func runServer(p serverParams) error {
	kind, err := repro.ParseEngineKind(p.engineName)
	if err != nil {
		return err
	}
	bkind, err := repro.ParseBackendKind(p.backend)
	if err != nil {
		return err
	}
	if p.crashPoint != "" {
		blockstore.SetCrashPoint(p.crashPoint)
		telemetry.Logger().Warn("crash point armed", "point", p.crashPoint)
	}
	store, err := repro.Open(repro.Options{
		Engine:        kind,
		Alpha:         p.alpha,
		ExpectedBytes: int64(p.expectedGB * (1 << 30)),
		StoreData:     p.storeData,
		Backend:       bkind,
		Dir:           p.storeDir,
		Maintenance:   p.maint,
		Filter:        p.filter,
	})
	if err != nil {
		return err
	}

	scfg := serve.Config{
		Store:             store,
		MaxTenantInflight: p.tenantInflight,
		MaxTotalInflight:  p.totalInflight,
		TenantBandwidth:   p.tenantBWMBps * 1e6,
	}
	if p.crashAfter > 0 {
		scfg.OnIngest = func(n int) {
			if n >= p.crashAfter {
				// Simulated crash: exit without closing the store. A later
				// reopen must recover from what its two logs acknowledged.
				telemetry.Logger().Warn("simulating crash", "after_ingest", n)
				os.Exit(0)
			}
		}
	}
	srv := serve.New(scfg)
	httpSrv := &http.Server{Addr: p.addr, Handler: srv}

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	telemetry.Logger().Info("dedupd serving",
		"url", "http://"+p.addr, "engine", store.Engine(), "backend", store.BackendName())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		store.Close() //nolint:errcheck // listen failure surfaces first
		return err
	case s := <-sig:
		telemetry.Logger().Info("draining", "signal", s.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), p.drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(ctx)    // cancel in-flight ingests, wait for handlers
	httpErr := httpSrv.Shutdown(ctx) //nolint:contextcheck // same deadline
	closeErr := store.Close()        // both logs are durable already; checkpoints if due
	telemetry.Logger().Info("drained, store closed")
	if drainErr != nil {
		return drainErr
	}
	if httpErr != nil {
		return httpErr
	}
	return closeErr
}
