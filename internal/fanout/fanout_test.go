package fanout

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// run submits items 0..n-1 to a pool of workers goroutines whose work sleeps
// a random few microseconds and whose consume fails at item failAt (never
// when negative). The producer stops after stopAt submissions, or when Submit
// says to. It returns the items in the order consume and discard saw them,
// which of them consume saw, and Close's error.
func run(t *testing.T, workers, n, failAt, stopAt int) (seen []int, consumed int, err error) {
	t.Helper()
	var mu sync.Mutex // the delays are drawn on the workers
	rng := rand.New(rand.NewSource(int64(workers*1000 + n)))
	fail := errors.New("consume failed")
	worked := make([]bool, n)
	p := New(workers, 2*workers,
		func(i int) {
			mu.Lock()
			d := time.Duration(rng.Intn(50)) * time.Microsecond
			mu.Unlock()
			time.Sleep(d)
			worked[i] = true
		},
		func(i int) error {
			if !worked[i] {
				t.Errorf("item %d consumed before its work ran", i)
			}
			seen = append(seen, i)
			consumed++
			if i == failAt {
				return fail
			}
			return nil
		},
		func(i int) { seen = append(seen, i) })
	for i := 0; i < n && i < stopAt; i++ {
		if !p.Submit(i) {
			if failAt < 0 || i < failAt {
				t.Errorf("Submit of item %d reported a failure; none had happened", i)
			}
			stopAt = i + 1
			break
		}
	}
	err = p.Close()
	if failAt >= 0 && failAt < stopAt && !errors.Is(err, fail) {
		t.Errorf("Close returned %v, want the consume error", err)
	}
	if want := min(n, stopAt); len(seen) != want {
		t.Fatalf("%d items handed back, want every one of the %d submitted", len(seen), want)
	}
	return seen, consumed, err
}

// TestOrderUnderRandomDelays: whatever order the workers finish in, consume
// sees every item once, in submission order.
func TestOrderUnderRandomDelays(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seen, consumed, err := run(t, workers, 2000, -1, 1<<30)
			if err != nil || consumed != 2000 {
				t.Fatalf("%d consumed, err %v", consumed, err)
			}
			for i, got := range seen {
				if got != i {
					t.Fatalf("position %d holds item %d: out of order", i, got)
				}
			}
		})
	}
}

// TestConsumeErrorStopsSubmit: after the first consume error Submit reports
// false, consume sees nothing more, and every item submitted reaches consume
// or discard exactly once, in order.
func TestConsumeErrorStopsSubmit(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			seen, consumed, _ := run(t, workers, 2000, 300, 1<<30)
			if consumed != 301 {
				t.Fatalf("consume saw %d items, want the 301 up to the failing one", consumed)
			}
			if len(seen) == 2000 {
				t.Fatal("Submit never reported the failure: the producer ran to the end")
			}
			for i, got := range seen {
				if got != i {
					t.Fatalf("position %d holds item %d: not each submitted item once, in order", i, got)
				}
			}
		})
	}
}

// TestOneWorkerStartsNoGoroutine: with one worker, work and consume run inside
// Submit on the producer's goroutine.
func TestOneWorkerStartsNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(int) {
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines inside the pool, %d before it", n, base)
		}
	}
	consumed := 0
	p := New(1, 8, check, func(i int) error { check(i); consumed++; return nil }, check)
	for i := 0; i < 100; i++ {
		if !p.Submit(i) {
			t.Fatal("Submit failed")
		}
		if consumed != i+1 {
			t.Fatalf("item %d was not consumed inside its Submit", i)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoGoroutineOutlivesClose: however the producer ends — at the end of its
// items, after a consume error, or stopping early of its own accord — Close
// leaves no goroutine of the pool behind.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	for _, tc := range []struct {
		name           string
		failAt, stopAt int
	}{
		{"success", -1, 1 << 30},
		{"consume error", 50, 1 << 30},
		{"early producer stop", -1, 70},
	} {
		for _, workers := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				base := runtime.NumGoroutine()
				run(t, workers, 500, tc.failAt, tc.stopAt)
				// Close has waited for every goroutine's last act; give
				// them the moment they need to return after it.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after Close, %d before the pool", runtime.NumGoroutine(), base)
					}
					time.Sleep(time.Millisecond)
				}
			})
		}
	}
}

// TestSubmitAllocatesNothing: the pool's allocations are its set-up, the
// same for ten items as for ten thousand.
func TestSubmitAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(5, func() {
				p := New(workers, 2*workers, func(int) {}, func(int) error { return nil }, func(int) {})
				for i := 0; i < n; i++ {
					p.Submit(i)
				}
				p.Close()
			})
		}
		if few, many := allocs(10), allocs(10000); many > few+1 {
			t.Fatalf("workers=%d: %.0f allocations for 10 items, %.0f for 10000", workers, few, many)
		}
	}
}
