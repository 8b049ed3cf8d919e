package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSemaphoreBoundsConcurrency(t *testing.T) {
	sem := NewSemaphore(3)
	ctx := context.Background()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sem.Acquire(ctx); err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			sem.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency = %d, want ≤ 3", p)
	}
	if got := sem.InFlight(); got != 0 {
		t.Errorf("InFlight after drain = %d, want 0", got)
	}
	if got := sem.Cap(); got != 3 {
		t.Errorf("Cap = %d, want 3", got)
	}
}

func TestSemaphoreAcquireHonorsContext(t *testing.T) {
	sem := NewSemaphore(1)
	if err := sem.Acquire(context.Background()); err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := sem.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Acquire: err = %v, want DeadlineExceeded", err)
	}
	sem.Release()
}

func TestSemaphoreNilIsUnbounded(t *testing.T) {
	var sem *Semaphore
	if got := NewSemaphore(0); got != nil {
		t.Fatal("NewSemaphore(0) != nil")
	}
	if err := sem.Acquire(context.Background()); err != nil {
		t.Fatalf("nil Acquire: %v", err)
	}
	sem.Release()
	if sem.InFlight() != 0 || sem.Cap() != 0 {
		t.Error("nil semaphore reported non-zero state")
	}
}

// ladderPolicy keeps backoffs negligible for the RunBatch tests.
var ladderPolicy = Policy{MaxAttempts: 2, BackoffBase: time.Microsecond, BackoffMax: time.Microsecond}

func TestRunBatchFirstAttemptSucceeds(t *testing.T) {
	var sends, preps int
	err := RunBatch(context.Background(), ladderPolicy, 4,
		func(ids []int) error { sends++; return nil },
		func(ids []int) error { preps++; return nil },
		func(id int) { t.Errorf("single(%d) on the happy path", id) })
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if sends != 1 || preps != 0 {
		t.Errorf("sends=%d preps=%d, want 1/0 (no prep before the first attempt)", sends, preps)
	}
}

func TestRunBatchRetriesThenSucceeds(t *testing.T) {
	var sends, preps int
	err := RunBatch(context.Background(), ladderPolicy, 4,
		func(ids []int) error {
			sends++
			if sends == 1 {
				return errors.New("transient")
			}
			return nil
		},
		func(ids []int) error {
			preps++
			if len(ids) != 4 {
				t.Errorf("prep saw %d ids, want the whole envelope", len(ids))
			}
			return nil
		},
		func(id int) { t.Errorf("single(%d) despite retry success", id) })
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if sends != 2 {
		t.Errorf("sends = %d, want 2 whole-envelope attempts, no ladder descent", sends)
	}
	if preps != 1 {
		t.Errorf("preps = %d, want 1 (before the retry)", preps)
	}
}

// TestRunBatchDescendsLadder: whole-envelope attempts exhaust, each half
// is tried once, and the ids of halves that still fail degrade to
// per-message sends — the batch→split→per-message ladder.
func TestRunBatchDescendsLadder(t *testing.T) {
	var envelope, halves int
	var singles []int
	err := RunBatch(context.Background(), ladderPolicy, 5,
		func(ids []int) error {
			if len(ids) == 5 {
				envelope++
				return errors.New("whole envelope down")
			}
			halves++
			if halves == 1 {
				return nil // first half delivered
			}
			return errors.New("second half down")
		},
		func(ids []int) error { return nil },
		func(id int) { singles = append(singles, id) })
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if envelope != 2 {
		t.Errorf("whole-envelope sends = %d, want MaxAttempts=2", envelope)
	}
	if halves != 2 {
		t.Errorf("split sends = %d, want 2", halves)
	}
	// n=5 splits 2/3; the failing second half degrades ids 2,3,4.
	if len(singles) != 3 {
		t.Fatalf("singles = %v, want ids 2..4", singles)
	}
	for i, id := range []int{2, 3, 4} {
		if singles[i] != id {
			t.Errorf("singles[%d] = %d, want %d", i, singles[i], id)
		}
	}
}

func TestRunBatchSingletonSkipsSplit(t *testing.T) {
	var sends, singles int
	err := RunBatch(context.Background(), ladderPolicy, 1,
		func(ids []int) error { sends++; return errors.New("down") },
		nil,
		func(id int) { singles++ })
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if singles != 1 || sends != ladderPolicy.MaxAttempts {
		t.Errorf("sends=%d singles=%d, want %d whole sends, no split, direct degradation", sends, singles, ladderPolicy.MaxAttempts)
	}
}

func TestRunBatchStopsOnContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sends := 0
	err := RunBatch(ctx, ladderPolicy, 4,
		func(ids []int) error { sends++; cancel(); return errors.New("down") },
		nil,
		func(id int) { t.Error("single after context death") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sends != 1 {
		t.Errorf("sends = %d, want 1", sends)
	}
}

func TestRunBatchPrepFailureAborts(t *testing.T) {
	prepErr := errors.New("rewrap failed")
	err := RunBatch(context.Background(), ladderPolicy, 4,
		func(ids []int) error { return errors.New("down") },
		func(ids []int) error { return prepErr },
		func(id int) {})
	if !errors.Is(err, prepErr) {
		t.Fatalf("err = %v, want the prep error (caller fails unresolved ids)", err)
	}
}
