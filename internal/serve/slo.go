package serve

import (
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// SLO definitions for the dedupd service (documented in DESIGN.md):
//
//   - Availability: fraction of non-throttled requests that do not fail
//     server-side. Errors are 5xx responses; 429 backpressure is the
//     protocol working as designed and never consumes error budget, and
//     4xx client errors are the caller's fault.
//   - Latency: request wall time tracked as a per-tenant histogram; the
//     /v1/stats view reports p50/p95/p99 against sloLatencyTarget.
//   - Error-budget burn rate: the windowed error rate divided by the
//     budget rate (1 - objective). Burn 1.0 = spending exactly the
//     sustainable budget; 14.4 = the classic "page now" threshold (a 30-day
//     budget gone in ~2 days).
const (
	sloAvailabilityObjective = 0.999
	sloLatencyTargetSeconds  = 2.0

	// Burn rate is measured over a rolling window of sloWindowBuckets
	// buckets of sloBucketSeconds each (60 s total by default): long enough
	// to smooth single hiccups, short enough to flag an active incident.
	sloBucketSeconds = 10
	sloWindowBuckets = 6
)

// sloBucket accumulates one 10-second slot of the rolling window.
type sloBucket struct {
	epoch int64 // unix time / sloBucketSeconds this slot holds
	reqs  int64
	errs  int64
}

// tenantSLO is one tenant's SLI state. What View reports is the tracker's
// own: the counts, a latency histogram on the tracker's private registry and
// the in-RAM rolling window behind the burn rate. The same events also go to
// series on the process registry, so they render on /metrics with tenant
// labels; those are shared by every tracker in the process.
type tenantSLO struct {
	reqs, errs, throttled int64 // guarded by sloTracker.mu
	ownLatency            *telemetry.Histogram

	requests *telemetry.Counter
	errors   *telemetry.Counter
	throttle *telemetry.Counter
	latency  *telemetry.Histogram
	burn     *telemetry.Gauge

	window [sloWindowBuckets]sloBucket
}

// sloTracker tracks per-tenant SLIs. All methods are safe for concurrent
// use; Record is a map lookup, a few atomic adds, and one mutex-guarded
// count and window update — cheap enough for every request.
type sloTracker struct {
	mu      sync.Mutex
	tenants map[string]*tenantSLO
	own     *telemetry.Registry // this tracker's latency histograms
	now     func() time.Time    // injectable clock for tests
}

func newSLOTracker() *sloTracker {
	return &sloTracker{tenants: make(map[string]*tenantSLO), own: telemetry.NewRegistry(), now: time.Now}
}

func (t *sloTracker) tenant(name string) *tenantSLO {
	if s, ok := t.tenants[name]; ok {
		return s
	}
	reg := telemetry.Default()
	s := &tenantSLO{
		ownLatency: t.own.Histogram(name, "", telemetry.DurationBuckets),
		requests: reg.Counter(telemetry.Name("slo_requests_total", "tenant", name),
			"SLI: requests counted against the availability SLO, by tenant"),
		errors: reg.Counter(telemetry.Name("slo_errors_total", "tenant", name),
			"SLI: 5xx responses (error-budget spend), by tenant"),
		throttle: reg.Counter(telemetry.Name("slo_throttled_total", "tenant", name),
			"429 backpressure responses (excluded from the error budget), by tenant"),
		latency: reg.Histogram(telemetry.Name("slo_request_seconds", "tenant", name),
			"SLI: request wall time, by tenant", telemetry.DurationBuckets),
		burn: reg.Gauge(telemetry.Name("slo_error_budget_burn_rate", "tenant", name),
			"windowed error rate over budget rate (1.0 = sustainable spend), by tenant"),
	}
	t.tenants[name] = s
	return s
}

// Record folds one finished request into the tenant's SLIs. code is the
// HTTP status; dur the request wall time.
func (t *sloTracker) Record(tenantName string, code int, dur time.Duration) {
	t.mu.Lock()
	s := t.tenant(tenantName)
	epoch := t.now().Unix() / sloBucketSeconds
	b := &s.window[epoch%sloWindowBuckets]
	if b.epoch != epoch {
		b.epoch, b.reqs, b.errs = epoch, 0, 0
	}
	isErr := code >= 500
	if code == 429 {
		// Backpressure: counted separately, no budget spend.
		s.throttled++
		s.throttle.Inc()
	} else {
		s.reqs++
		b.reqs++
		if isErr {
			s.errs++
			b.errs++
		}
	}
	s.burn.Set(s.burnRateLocked(epoch))
	t.mu.Unlock()

	if code != 429 {
		s.requests.Inc()
		if isErr {
			s.errors.Inc()
		}
	}
	s.latency.Observe(dur.Seconds())
	s.ownLatency.Observe(dur.Seconds())
}

// burnRateLocked computes the rolling-window burn rate. Caller holds t.mu.
func (s *tenantSLO) burnRateLocked(epoch int64) float64 {
	var reqs, errs int64
	for i := range s.window {
		if b := &s.window[i]; epoch-b.epoch < sloWindowBuckets {
			reqs += b.reqs
			errs += b.errs
		}
	}
	if reqs == 0 {
		return 0
	}
	return (float64(errs) / float64(reqs)) / (1 - sloAvailabilityObjective)
}

// TenantSLOView is one tenant's SLI/SLO summary on /v1/stats.
type TenantSLOView struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Throttled    int64   `json:"throttled"`
	Availability float64 `json:"availability"`
	// ErrorBudgetRemaining is the fraction of the cumulative error budget
	// still unspent (1 = untouched, 0 = exhausted, negative = blown).
	ErrorBudgetRemaining float64 `json:"errorBudgetRemaining"`
	// BurnRate is the rolling-window budget spend rate (1.0 = sustainable).
	BurnRate   float64 `json:"burnRate"`
	LatencyP50 float64 `json:"latencyP50Seconds"`
	LatencyP95 float64 `json:"latencyP95Seconds"`
	LatencyP99 float64 `json:"latencyP99Seconds"`
}

// SLOView is the /v1/stats slo section.
type SLOView struct {
	AvailabilityObjective float64                  `json:"availabilityObjective"`
	LatencyTargetSeconds  float64                  `json:"latencyTargetSeconds"`
	Tenants               map[string]TenantSLOView `json:"tenants"`
}

// View snapshots every tenant's SLIs.
func (t *sloTracker) View() SLOView {
	t.mu.Lock()
	defer t.mu.Unlock()
	epoch := t.now().Unix() / sloBucketSeconds
	out := SLOView{
		AvailabilityObjective: sloAvailabilityObjective,
		LatencyTargetSeconds:  sloLatencyTargetSeconds,
		Tenants:               make(map[string]TenantSLOView, len(t.tenants)),
	}
	names := make([]string, 0, len(t.tenants))
	for name := range t.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := t.tenants[name]
		reqs, errs := s.reqs, s.errs
		v := TenantSLOView{
			Requests:     reqs,
			Errors:       errs,
			Throttled:    s.throttled,
			Availability: 1,
			BurnRate:     s.burnRateLocked(epoch),
		}
		if reqs > 0 {
			v.Availability = 1 - float64(errs)/float64(reqs)
			budget := float64(reqs) * (1 - sloAvailabilityObjective)
			v.ErrorBudgetRemaining = 1 - float64(errs)/budget
		} else {
			v.ErrorBudgetRemaining = 1
		}
		lat := s.ownLatency.Snapshot()
		v.LatencyP50 = lat.Quantile(0.50)
		v.LatencyP95 = lat.Quantile(0.95)
		v.LatencyP99 = lat.Quantile(0.99)
		out.Tenants[name] = v
	}
	return out
}
