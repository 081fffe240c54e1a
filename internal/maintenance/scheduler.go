package maintenance

import (
	"context"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Scheduler drives a Pass in the background at a fixed wall-clock interval.
// Its ticks never overlap one another; the epochs an operator asks for
// (Store.MaintenanceEpoch, POST /v1/maintenance) run beside it, and the
// caller's run serializes the two.
type Scheduler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewScheduler starts a background scheduler invoking run every interval,
// which must be positive.
func NewScheduler(interval time.Duration, run func(ctx context.Context) (Stats, error)) *Scheduler {
	s := &Scheduler{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop(interval, run)
	return s
}

func (s *Scheduler) loop(interval time.Duration, run func(ctx context.Context) (Stats, error)) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-s.stop
		cancel()
	}()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if _, err := run(ctx); err != nil && ctx.Err() == nil {
				telemetry.Logger().Warn("maintenance: scheduled epoch failed", "err", err)
			}
		}
	}
}

// Stop cancels any epoch in flight and waits for the scheduler goroutine to
// exit. Safe to call more than once.
func (s *Scheduler) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
