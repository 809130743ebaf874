package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryJobOnce: at any worker count every job runs exactly
// once.
func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		n := 53
		counts := make([]int32, n)
		err := forEach(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachNilErrorMeansComplete asserts the completeness contract: a nil
// return guarantees every job ran.
func TestForEachNilErrorMeansComplete(t *testing.T) {
	counts := make([]int32, 200)
	err := forEach(context.Background(), 5, len(counts), func(i int) error {
		atomic.AddInt32(&counts[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	ran := false
	if err := forEach(context.Background(), 0, 0, func(int) error { ran = true; return nil }); err != nil || ran {
		t.Errorf("no jobs must mean no calls and no error: ran %v, err %v", ran, err)
	}
}

func TestForEachSerialOrder(t *testing.T) {
	var order []int
	forEach(context.Background(), 1, 5, func(i int) error { order = append(order, i); return nil })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial schedule ran out of order: %v", order)
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	for _, workers := range []int{1, 4} {
		err := forEach(context.Background(), workers, 10, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return fmt.Errorf("late failure")
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: err = %v, want the index-3 error", workers, err)
		}
	}
}

// TestForEachCancelStopsNewJobs asserts a cancelled context stops the
// hand-out promptly: jobs already in flight finish, no new ones start, and
// the call reports ctx.Err().
func TestForEachCancelStopsNewJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		started := make(chan struct{}, 1)
		err := forEach(ctx, workers, 1000, func(i int) error {
			ran.Add(1)
			select {
			case started <- struct{}{}:
				cancel() // cancel from inside the first job to reach here
			default:
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// With w workers at most w jobs were in flight at cancellation, and
		// each worker may have grabbed one more index before observing it.
		if got := ran.Load(); got > int32(2*workers+1) {
			t.Errorf("workers=%d: %d jobs ran after prompt cancel", workers, got)
		}
	}
}

// TestForEachCancelLeaksNoGoroutines pins the drain guarantee: after a
// cancelled forEach returns, every worker goroutine has exited.
func TestForEachCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int32
		forEach(ctx, 8, 10000, func(i int) error {
			if n.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
	}
	// Workers are joined before forEach returns, so the count must be back
	// to (roughly) the baseline immediately, no settling loop needed.
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d after cancelled sweeps", before, after)
	}
}

// TestForEachCancellationWins asserts ctx errors take precedence over job
// errors.
func TestForEachCancellationWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := forEach(ctx, 2, 10, func(i int) error {
		return errors.New("job error")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
