package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestFan checks the non-mapping fan-out: every unit runs, the Limit
// budget is respected, the first error in index order wins, and
// cancellation preempts unit errors.
func TestFan(t *testing.T) {
	var ran [16]bool
	limit := NewLimiter(2)
	var inFlight, maxInFlight atomic.Int32
	err := Fan(context.Background(), len(ran), Options{Parallelism: 8, Limit: limit}, func(_ context.Context, i int) error {
		if n := inFlight.Add(1); n > maxInFlight.Load() {
			maxInFlight.Store(n)
		}
		defer inFlight.Add(-1)
		time.Sleep(time.Millisecond)
		ran[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("unit %d never ran", i)
		}
	}
	if maxInFlight.Load() > 2 {
		t.Errorf("%d units in flight, limiter admits 2", maxInFlight.Load())
	}
	if n := limit.InFlight(); n != 0 {
		t.Errorf("%d slots still held after Fan returned", n)
	}

	wantErr := errors.New("unit 3 broke")
	err = Fan(context.Background(), 8, Options{Parallelism: 4}, func(_ context.Context, i int) error {
		if i == 3 {
			return wantErr
		}
		if i == 6 {
			return errors.New("unit 6 broke")
		}
		return nil
	})
	if err != wantErr {
		t.Errorf("Fan returned %v, want the lowest-index error", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Fan(ctx, 4, Options{}, func(context.Context, int) error { return errors.New("ran") }); err != context.Canceled {
		t.Errorf("canceled Fan returned %v, want context.Canceled", err)
	}
}

// TestFanLowestErrorWhenLaterUnitFailsFirst pins the error rule when a
// later unit fails before an earlier one finishes: the earlier unit was
// already claimed, runs to its end, and its error is the one returned.
func TestFanLowestErrorWhenLaterUnitFailsFirst(t *testing.T) {
	early := errors.New("unit 0 broke")
	var started [4]atomic.Bool
	err := Fan(context.Background(), len(started), Options{Parallelism: 2}, func(_ context.Context, i int) error {
		started[i].Store(true)
		switch i {
		case 0:
			time.Sleep(20 * time.Millisecond)
			return early
		case 1:
			return errors.New("unit 1 broke")
		}
		return nil
	})
	if err != early {
		t.Errorf("Fan returned %v, want unit 0's error", err)
	}
	if started[3].Load() {
		t.Error("unit 3 started after unit 1 had failed")
	}
}

// TestFanNestedNoDeadlock runs a Fan of P units on a P-slot limiter,
// each unit running a nested Fan of 4 on its unit context. Every slot is
// held by an outer worker, so a nested worker that blocked for a slot
// would wait forever; the nested units must run inline in the held slots
// and the limiter must never admit more than P holders.
func TestFanNestedNoDeadlock(t *testing.T) {
	for _, par := range []int{1, 2, 4} {
		limit := NewLimiter(par)
		eo := Options{Parallelism: par, Limit: limit}
		var units, over atomic.Int32
		done := make(chan error, 1)
		go func() {
			done <- Fan(context.Background(), par, eo, func(ctx context.Context, _ int) error {
				return Fan(ctx, 4, eo, func(context.Context, int) error {
					if limit.InFlight() > par {
						over.Add(1)
					}
					units.Add(1)
					time.Sleep(time.Millisecond)
					return nil
				})
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("parallelism %d: nested Fan deadlocked on a fully held limiter", par)
		}
		if got := units.Load(); got != int32(4*par) {
			t.Errorf("parallelism %d: %d nested units ran, want %d", par, got, 4*par)
		}
		if over.Load() != 0 {
			t.Errorf("parallelism %d: limiter over its cap", par)
		}
		if limit.InFlight() != 0 {
			t.Errorf("parallelism %d: %d slots leaked", par, limit.InFlight())
		}
	}
}

// TestFanTopLevelQueues pins the top-level half of the admission rule:
// a Fan on a context that holds no slot takes its slot with the blocking
// acquire, so it waits in the limiter's queue (visible in Waiting) while
// another holder has the only slot.
func TestFanTopLevelQueues(t *testing.T) {
	limit := NewLimiter(1)
	if err := limit.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- Fan(context.Background(), 3, Options{Parallelism: 1, Limit: limit}, func(context.Context, int) error {
			ran.Store(true)
			return nil
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for limit.Waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("top-level Fan never queued for its slot")
		}
		time.Sleep(time.Millisecond)
	}
	if ran.Load() {
		t.Fatal("a unit ran without a slot")
	}
	limit.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !ran.Load() || limit.InFlight() != 0 {
		t.Errorf("ran %v, %d slots held after Fan", ran.Load(), limit.InFlight())
	}
}

// TestFanPanicIsError checks a panicking unit becomes an ErrPanic error
// instead of crashing the process, at one worker and at two.
func TestFanPanicIsError(t *testing.T) {
	for _, par := range []int{1, 2} {
		limit := NewLimiter(par)
		err := Fan(context.Background(), 4, Options{Parallelism: par, Limit: limit}, func(_ context.Context, i int) error {
			if i == 2 {
				panic("boom")
			}
			return nil
		})
		if !errors.Is(err, ErrPanic) {
			t.Errorf("parallelism %d: Fan returned %v, want an ErrPanic error", par, err)
		}
		if limit.InFlight() != 0 {
			t.Errorf("parallelism %d: %d slots leaked by the panic", par, limit.InFlight())
		}
	}
}

func TestPollAcquireTakesFreeSlot(t *testing.T) {
	l := NewLimiter(1)
	ctx := context.Background()
	if !l.pollAcquire(ctx, nil) {
		t.Fatal("pollAcquire failed on an idle limiter")
	}
	l.release()
}

func TestPollAcquireNilLimiter(t *testing.T) {
	if !(*Limiter)(nil).pollAcquire(context.Background(), nil) {
		t.Fatal("nil limiter must admit immediately")
	}
}

func TestPollAcquireGivesUp(t *testing.T) {
	l := NewLimiter(1)
	if !l.tryAcquire() {
		t.Fatal("setup: could not take the only slot")
	}
	defer l.release()
	done := make(chan bool, 1)
	go func() {
		done <- l.pollAcquire(context.Background(), func() bool { return true })
	}()
	select {
	case got := <-done:
		if got {
			t.Fatal("pollAcquire returned true though giveUp fired and the slot was held")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pollAcquire did not honor giveUp on a saturated limiter")
	}
}

func TestPollAcquireHonorsContext(t *testing.T) {
	l := NewLimiter(1)
	if !l.tryAcquire() {
		t.Fatal("setup: could not take the only slot")
	}
	defer l.release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		done <- l.pollAcquire(ctx, nil)
	}()
	cancel()
	select {
	case got := <-done:
		if got {
			t.Fatal("pollAcquire returned true after cancellation on a saturated limiter")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pollAcquire did not honor context cancellation")
	}
}

// TestPollAcquireEventuallyWins pins the opportunistic half: a poller
// waiting on a saturated limiter takes the slot soon after it frees.
func TestPollAcquireEventuallyWins(t *testing.T) {
	l := NewLimiter(1)
	if !l.tryAcquire() {
		t.Fatal("setup: could not take the only slot")
	}
	done := make(chan bool, 1)
	go func() {
		done <- l.pollAcquire(context.Background(), nil)
	}()
	time.Sleep(2 * time.Millisecond)
	l.release()
	select {
	case got := <-done:
		if !got {
			t.Fatal("pollAcquire gave up without giveUp or cancellation")
		}
		l.release()
	case <-time.After(5 * time.Second):
		t.Fatal("pollAcquire never took the freed slot")
	}
}
