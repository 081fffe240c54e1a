package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// loadgenParams configures the -loadgen client mode.
type loadgenParams struct {
	addr        string
	tenants     int
	gens        int
	files       int
	fileKB      int64
	seed        int64
	scenario    string
	out         string // trajectory file; "" = none
	mode        string
	skipRestore bool
}

// opRecord is one client-observed operation in the -loadgen.out trajectory.
// Failed operations are recorded too (Status + Error), not silently dropped:
// the trajectory is the debugging artifact, and Trace is the W3C trace ID the
// client minted for the request — paste it into /debug/traces to pull the
// server-side span tree.
type opRecord struct {
	Tenant      string  `json:"tenant"`
	Label       string  `json:"label"`
	Op          string  `json:"op"` // "backup" or "restore"
	Bytes       int64   `json:"bytes"`
	WallSeconds float64 `json:"wallSeconds"`
	MBps        float64 `json:"mbps"`
	Status      int     `json:"status,omitempty"`
	Error       string  `json:"error,omitempty"`
	Trace       string  `json:"trace,omitempty"`
	Retries429  int     `json:"retries429,omitempty"`
	Verified    bool    `json:"verified,omitempty"`
}

type loadgenSummary struct {
	IngestBytes    int64   `json:"ingestBytes"`
	IngestSeconds  float64 `json:"ingestSeconds"`
	IngestMBps     float64 `json:"ingestMBps"`
	LatencyP50     float64 `json:"latencyP50Seconds"`
	LatencyP95     float64 `json:"latencyP95Seconds"`
	LatencyP99     float64 `json:"latencyP99Seconds"`
	Rejected429    int     `json:"rejected429"`
	Failed         int     `json:"failedOps"`
	RestoreBytes   int64   `json:"restoreBytes"`
	RestoreSeconds float64 `json:"restoreSeconds"`
	RestoreMBps    float64 `json:"restoreMBps"`
	AllVerified    bool    `json:"allVerified"`
}

type loadgenConfig struct {
	Addr     string `json:"addr"`
	Tenants  int    `json:"tenants"`
	Gens     int    `json:"gens"`
	Files    int    `json:"files"`
	FileKB   int64  `json:"fileKB"`
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario,omitempty"`
	Mode     string `json:"restoreMode"`
}

type loadgenReport struct {
	Config  loadgenConfig  `json:"config"`
	Ops     []opRecord     `json:"ops"`
	Summary loadgenSummary `json:"summary"`
}

// tenantRun drives one tenant: gens sequential backup generations of a
// seeded synthetic file system, uploaded over HTTP, content-hashed on the
// way out so restores can be verified bit-identical later.
type tenantRun struct {
	id     int
	name   string
	labels []string
	hashes []string
	ops    []opRecord
	failed int
	err    error // transport-level failure (op-level failures live in ops)
}

func runLoadgen(p loadgenParams) error {
	if p.tenants < 1 || p.gens < 1 {
		return fmt.Errorf("loadgen: need at least 1 tenant and 1 generation")
	}
	base := "http://" + p.addr
	client := &http.Client{}
	if err := waitHealthy(client, base, 10*time.Second); err != nil {
		return err
	}

	// Ingest phase: p.tenants concurrent streams, ops recorded in full.
	wallStart := time.Now()
	runs, err := runIngestPhase(client, base, p)
	if err != nil {
		return err
	}
	ingestWall := time.Since(wallStart).Seconds()

	rep := loadgenReport{}
	rep.Config = loadgenConfig{
		Addr: p.addr, Tenants: p.tenants, Gens: p.gens,
		Files: p.files, FileKB: p.fileKB, Seed: p.seed,
		Scenario: p.scenario, Mode: p.mode,
	}
	rep.Summary.AllVerified = true

	var latencies []float64
	for _, tr := range runs {
		for _, op := range tr.ops {
			rep.Ops = append(rep.Ops, op)
			rep.Summary.IngestBytes += op.Bytes
			rep.Summary.Rejected429 += op.Retries429
			latencies = append(latencies, op.WallSeconds)
		}
		rep.Summary.Failed += tr.failed
	}
	rep.Summary.IngestSeconds = ingestWall
	if ingestWall > 0 {
		rep.Summary.IngestMBps = float64(rep.Summary.IngestBytes) / ingestWall / 1e6
	}
	sort.Float64s(latencies)
	rep.Summary.LatencyP50 = percentile(latencies, 0.50)
	rep.Summary.LatencyP95 = percentile(latencies, 0.95)
	rep.Summary.LatencyP99 = percentile(latencies, 0.99)

	// Trace round-trip check: the first backup's client-minted trace ID must
	// appear in the server's tail-captured /debug/traces (the warmup policy
	// always retains the first requests).
	traceFound := false
	if len(rep.Ops) > 0 {
		traceFound, err = traceRetained(client, base, rep.Ops[0].Trace)
		if err != nil {
			telemetry.Logger().Warn("loadgen: /debug/traces check failed", "err", err)
		}
	}

	// Restore phase: every tenant's every generation, streamed back and
	// compared against the content hash recorded at upload time.
	if !p.skipRestore {
		restoreStart := time.Now()
		for _, tr := range runs {
			for g, lbl := range tr.labels {
				op, err := restoreVerify(client, base, tr, g, lbl, p.mode)
				rep.Ops = append(rep.Ops, op)
				if err != nil {
					rep.Summary.Failed++
					rep.Summary.AllVerified = false
					telemetry.Logger().Error("loadgen: restore failed",
						"label", lbl, "trace", op.Trace, "err", err)
					continue
				}
				rep.Summary.RestoreBytes += op.Bytes
				if !op.Verified {
					rep.Summary.AllVerified = false
				}
			}
		}
		rep.Summary.RestoreSeconds = time.Since(restoreStart).Seconds()
		if rep.Summary.RestoreSeconds > 0 {
			rep.Summary.RestoreMBps = float64(rep.Summary.RestoreBytes) / rep.Summary.RestoreSeconds / 1e6
		}
	}

	if p.out != "" {
		blob, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := blockstore.WriteFileAtomic(blockstore.OS, p.out, blob); err != nil {
			return err
		}
	}
	fmt.Printf("loadgen: %d tenants × %d gens: %.1f MB ingested at %.1f MB/s "+
		"(p50 %.3fs, p95 %.3fs, p99 %.3fs, %d×429, %d failed)",
		p.tenants, p.gens, float64(rep.Summary.IngestBytes)/1e6, rep.Summary.IngestMBps,
		rep.Summary.LatencyP50, rep.Summary.LatencyP95, rep.Summary.LatencyP99,
		rep.Summary.Rejected429, rep.Summary.Failed)
	if !p.skipRestore {
		fmt.Printf("; %.1f MB restored at %.1f MB/s, verified=%v",
			float64(rep.Summary.RestoreBytes)/1e6, rep.Summary.RestoreMBps, rep.Summary.AllVerified)
	}
	fmt.Printf("; trace round-trip: %v", traceFound)
	if p.out != "" {
		fmt.Printf("; trajectory → %s", p.out)
	}
	fmt.Println()
	if rep.Summary.Failed > 0 {
		return fmt.Errorf("loadgen: %d operations failed", rep.Summary.Failed)
	}
	if !rep.Summary.AllVerified {
		return fmt.Errorf("loadgen: restored content diverged from uploaded content")
	}
	return nil
}

// runIngestPhase uploads p.gens generations from p.tenants concurrent
// tenants named t0..tN-1.
func runIngestPhase(client *http.Client, base string, p loadgenParams) ([]*tenantRun, error) {
	runs := make([]*tenantRun, p.tenants)
	var wg sync.WaitGroup
	for t := range runs {
		runs[t] = &tenantRun{id: t, name: fmt.Sprintf("t%d", t)}
		wg.Add(1)
		go func(tr *tenantRun) {
			defer wg.Done()
			tr.err = tr.ingest(client, base, p)
		}(runs[t])
	}
	wg.Wait()
	for _, tr := range runs {
		if tr.err != nil {
			return nil, fmt.Errorf("loadgen: tenant %s: %w", tr.name, tr.err)
		}
	}
	return runs, nil
}

// traceRetained reports whether /debug/traces holds a span tree of the given
// trace ID.
func traceRetained(client *http.Client, base, trace string) (bool, error) {
	resp, err := client.Get(base + "/debug/traces")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("/debug/traces: %s", resp.Status)
	}
	var view telemetry.TracesView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return false, err
	}
	for _, tr := range view.Traces {
		if tr.Trace == trace {
			return true, nil
		}
	}
	return false, nil
}

// tenantSchedule builds one tenant's stream schedule from the configured
// scenario. "mixed" rotates tenants across backup, primary and workspace so
// one run exercises all three against the same store; each tenant gets an
// independently derived seed either way.
func tenantSchedule(id int, p loadgenParams) (workload.Schedule, error) {
	name := p.scenario
	if strings.EqualFold(name, "mixed") {
		all := workload.AllScenarios()
		name = all[id%len(all)].String()
	}
	sc, err := workload.ParseScenario(name)
	if err != nil {
		return nil, err
	}
	seed := p.seed*1000003 + int64(id)*7919
	if sc == workload.ScenarioBackup {
		cfg := workload.DefaultConfig(seed)
		cfg.NumFiles = p.files
		cfg.MeanFileSize = p.fileKB << 10
		return workload.NewSingle(cfg)
	}
	return workload.NewScenario(sc, workload.ScenarioParams{
		Seed:           seed,
		Users:          1,
		BytesPerStream: int64(p.files) * (p.fileKB << 10),
	})
}

// ingest uploads this tenant's generations sequentially (tenants run
// concurrently with each other). A 429 is retried after the server's
// Retry-After hint; every retry is counted into the trajectory. Failed
// uploads are recorded as failed ops (status + error + trace) and the run
// moves on — one bad generation shouldn't hide the rest of the trajectory.
func (tr *tenantRun) ingest(client *http.Client, base string, p loadgenParams) error {
	sched, err := tenantSchedule(tr.id, p)
	if err != nil {
		return err
	}
	for g := 0; g < p.gens; g++ {
		bk := sched.Next()
		// Materialize the stream so a 429 retry can replay it, and hash it
		// for the restore-verify phase.
		data, err := io.ReadAll(bk.Stream)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		label := fmt.Sprintf("%s/%s", tr.name, bk.Label)

		// The client is the trace root: every attempt carries a W3C
		// traceparent, so the server's serve.ingest span tree joins this
		// trace and /debug/traces can be searched by the recorded ID.
		traceID := telemetry.NewTraceID()
		rootSpan := telemetry.NewSpanID()

		start := time.Now()
		retries := 0
		op := opRecord{
			Tenant: tr.name, Label: label, Op: "backup",
			Bytes: int64(len(data)), Trace: traceID.String(),
		}
		for {
			req, err := http.NewRequest(http.MethodPost, base+"/v1/backups/"+label, bytes.NewReader(data))
			if err != nil {
				return err
			}
			req.Header.Set("X-Tenant", tr.name)
			req.Header.Set("Content-Type", "application/octet-stream")
			req.Header.Set("traceparent", telemetry.FormatTraceParent(traceID, rootSpan))
			resp, err := client.Do(req)
			if err != nil {
				op.Error = err.Error()
				break
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close() //nolint:errcheck // read fully above
			op.Status = resp.StatusCode
			if resp.StatusCode == http.StatusTooManyRequests {
				retries++
				if retries > 100 {
					op.Error = fmt.Sprintf("still 429 after %d retries", retries)
					break
				}
				time.Sleep(retryAfter(resp))
				continue
			}
			if resp.StatusCode != http.StatusCreated {
				op.Error = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
			}
			break
		}
		wall := time.Since(start).Seconds()
		op.WallSeconds = wall
		op.Retries429 = retries
		if wall > 0 {
			op.MBps = float64(len(data)) / wall / 1e6
		}
		if op.Error != "" {
			tr.failed++
			telemetry.Logger().Error("loadgen: backup failed",
				"label", label, "status", op.Status, "trace", op.Trace, "err", op.Error)
		} else {
			tr.labels = append(tr.labels, label)
			tr.hashes = append(tr.hashes, hex.EncodeToString(sum[:]))
		}
		tr.ops = append(tr.ops, op)
	}
	return nil
}

// restoreVerify streams one backup back and compares its content hash with
// the hash recorded at upload time. The returned opRecord is always
// populated (with Status/Error on failure) so the trajectory records the
// attempt either way.
func restoreVerify(client *http.Client, base string, tr *tenantRun, g int, label, mode string) (opRecord, error) {
	traceID := telemetry.NewTraceID()
	rootSpan := telemetry.NewSpanID()
	op := opRecord{Tenant: tr.name, Label: label, Op: "restore", Trace: traceID.String()}
	url := fmt.Sprintf("%s/v1/backups/%s/restore?mode=%s", base, label, mode)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		op.Error = err.Error()
		return op, err
	}
	req.Header.Set("X-Tenant", tr.name)
	req.Header.Set("traceparent", telemetry.FormatTraceParent(traceID, rootSpan))
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		op.Error = err.Error()
		return op, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	op.Status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		op.Error = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
		return op, fmt.Errorf("%s", op.Error)
	}
	h := sha256.New()
	n, err := io.Copy(h, resp.Body)
	if err != nil {
		op.Error = err.Error()
		return op, err
	}
	wall := time.Since(start).Seconds()
	op.Bytes = n
	op.WallSeconds = wall
	if wall > 0 {
		op.MBps = float64(n) / wall / 1e6
	}
	got := hex.EncodeToString(h.Sum(nil))
	op.Verified = got == tr.hashes[g]
	if !op.Verified {
		telemetry.Logger().Error("loadgen: restored content hash mismatch",
			"label", label, "trace", op.Trace, "got", got[:12], "want", tr.hashes[g][:12])
	}
	return op, nil
}

// retryAfter parses the server's Retry-After hint (seconds), defaulting to
// a short client-side backoff.
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if d, err := time.ParseDuration(v + "s"); err == nil && d > 0 {
			if d > 2*time.Second {
				d = 2 * time.Second
			}
			return d
		}
	}
	return 100 * time.Millisecond
}

// waitHealthy polls /healthz until the server answers or the budget runs out.
func waitHealthy(client *http.Client, base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close() //nolint:errcheck // health probe
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("loadgen: server at %s not reachable: %w", base, err)
			}
			return fmt.Errorf("loadgen: server at %s not healthy", base)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// percentile returns the p-quantile of sorted (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
