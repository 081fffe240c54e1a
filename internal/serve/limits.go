package serve

import (
	"context"
	"io"
	"sync"

	"repro/internal/maintenance"
)

// limiter is the session manager's admission ledger: per-tenant and
// server-wide in-flight ingest counts (hard 429 beyond the caps) plus an
// optional per-tenant token-bucket bandwidth throttle shared by all of a
// tenant's concurrent uploads.
type limiter struct {
	perTenant int
	total     int
	bandwidth float64 // bytes/second per tenant; 0 = unthrottled

	mu       sync.Mutex
	inflight map[string]int
	buckets  map[string]*maintenance.Throttle
	used     int
}

func newLimiter(perTenant, total int, bandwidth float64) *limiter {
	return &limiter{
		perTenant: perTenant,
		total:     total,
		bandwidth: bandwidth,
		inflight:  make(map[string]int),
		buckets:   make(map[string]*maintenance.Throttle),
	}
}

// acquire claims one ingest slot for the tenant. It never blocks: when the
// tenant or the server is at its cap the claim is refused, and the caller
// turns that into a 429 — backpressure is the client's problem by design,
// the server holds no upload queue.
func (l *limiter) acquire(tenant string) (release func(), ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight[tenant] >= l.perTenant || l.used >= l.total {
		return nil, false
	}
	l.inflight[tenant]++
	l.used++
	var once sync.Once
	return func() {
		once.Do(func() {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.inflight[tenant]--
			if l.inflight[tenant] == 0 {
				delete(l.inflight, tenant)
			}
			l.used--
		})
	}, true
}

// throttle wraps r in the tenant's shared token bucket (no-op when
// bandwidth is unlimited).
func (l *limiter) throttle(ctx context.Context, tenant string, r io.Reader) io.Reader {
	if l.bandwidth <= 0 {
		return r
	}
	l.mu.Lock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = maintenance.NewThrottle(l.bandwidth)
		l.buckets[tenant] = b
	}
	l.mu.Unlock()
	return &throttledReader{ctx: ctx, r: r, b: b}
}

// snapshot reports current per-tenant in-flight counts.
func (l *limiter) snapshot() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int, len(l.inflight))
	for t, n := range l.inflight {
		out[t] = n
	}
	return out
}

// throttledReader meters reads through the tenant's bucket, which all of its
// streams draw from, so the cap is aggregate, not per-connection. It reads in
// at most 64 KiB bites so a huge Read cannot stall past its fair share.
type throttledReader struct {
	ctx context.Context
	r   io.Reader
	b   *maintenance.Throttle
}

func (t *throttledReader) Read(p []byte) (int, error) {
	const bite = 64 << 10
	if len(p) > bite {
		p = p[:bite]
	}
	n, err := t.r.Read(p)
	if n > 0 {
		// Charge for what actually arrived; the wait paces the next read.
		if werr := t.b.Wait(t.ctx, int64(n)); werr != nil {
			return n, werr
		}
	}
	return n, err
}
