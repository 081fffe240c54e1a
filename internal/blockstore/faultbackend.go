package blockstore

import (
	"context"
	"math/rand"
	"sync"
	"syscall"

	"repro/internal/telemetry"
)

// FaultConfig controls deterministic failure injection. All rates are
// per-operation probabilities in [0,1]; the same seed over the same
// operation sequence reproduces the same faults.
type FaultConfig struct {
	Seed int64
	// TransientRate injects retryable EIO failures (before the inner call
	// runs, so a retry can succeed).
	TransientRate float64
	// TornRate makes Seal acknowledge a write whose data section was
	// silently truncated — the classic lying disk. The tear surfaces later
	// as an ErrCorrupt short read.
	TornRate float64
}

// Fault wraps an inner backend with seed-controlled error injection for
// recovery testing. Faults draw from one seeded stream behind a mutex, so a
// serial operation sequence is fully deterministic (including under -race).
type Fault struct {
	inner Backend
	cfg   FaultConfig

	mu  sync.Mutex
	rng *rand.Rand

	injectedTransient *telemetry.Counter
	injectedTorn      *telemetry.Counter
}

// NewFault wraps inner with failure injection per cfg.
func NewFault(inner Backend, cfg FaultConfig) *Fault {
	return &Fault{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		injectedTransient: telemetry.NewCounter("blockstore_faults_transient_total",
			"transient EIO faults injected by the fault backend"),
		injectedTorn: telemetry.NewCounter("blockstore_faults_torn_total",
			"torn (short) container writes injected by the fault backend"),
	}
}

func (f *Fault) Name() string     { return "fault(" + f.inner.Name() + ")" }
func (f *Fault) StoresData() bool { return f.inner.StoresData() }

// Inner returns the wrapped backend (tests reach through to verify state).
func (f *Fault) Inner() Backend { return f.inner }

// draw rolls the two fault dice for one operation. allowTorn limits tear
// injection to Seal.
func (f *Fault) draw(allowTorn bool) (transient, torn bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.TransientRate > 0 && f.rng.Float64() < f.cfg.TransientRate {
		transient = true
	}
	if allowTorn && f.cfg.TornRate > 0 && f.rng.Float64() < f.cfg.TornRate {
		torn = true
	}
	return transient, torn
}

func (f *Fault) Seal(ctx context.Context, info ContainerInfo, data []byte) error {
	transient, torn := f.draw(true)
	if transient {
		f.injectedTransient.Inc()
		return Transient(syscall.EIO)
	}
	if torn && len(data) > 0 {
		// Acknowledge a truncated data section: the inner backend records
		// the full DataFill but stores fewer bytes, exactly what a lying
		// disk leaves behind. Detected later as an ErrCorrupt short read.
		f.injectedTorn.Inc()
		cut := len(data) / 2
		return f.inner.Seal(ctx, info, data[:cut])
	}
	return f.inner.Seal(ctx, info, data)
}

func (f *Fault) ReadData(ctx context.Context, id uint32) ([]byte, error) {
	transient, _ := f.draw(false)
	if transient {
		f.injectedTransient.Inc()
		return nil, Transient(syscall.EIO)
	}
	return f.inner.ReadData(ctx, id)
}

func (f *Fault) ReadDataRange(ctx context.Context, ids []uint32) ([][]byte, error) {
	transient, _ := f.draw(false)
	if transient {
		f.injectedTransient.Inc()
		return nil, Transient(syscall.EIO)
	}
	return f.inner.ReadDataRange(ctx, ids)
}

func (f *Fault) List(ctx context.Context) ([]ContainerInfo, error) {
	return f.inner.List(ctx)
}

func (f *Fault) Sync(ctx context.Context) error {
	transient, _ := f.draw(false)
	if transient {
		f.injectedTransient.Inc()
		return Transient(syscall.EIO)
	}
	return f.inner.Sync(ctx)
}

func (f *Fault) Close() error { return f.inner.Close() }

// Quarantine passes through when the inner backend supports it.
func (f *Fault) Quarantine(ctx context.Context, id uint32, reason string) error {
	if q, ok := f.inner.(Quarantiner); ok {
		return q.Quarantine(ctx, id, reason)
	}
	return ErrNoQuarantine
}

// Drop passes through when the inner backend supports it (no injection:
// the drop path has its own crash-point hooks).
func (f *Fault) Drop(ctx context.Context, ids []uint32, reason string) error {
	if d, ok := f.inner.(Dropper); ok {
		return d.Drop(ctx, ids, reason)
	}
	return ErrNoDrop
}
