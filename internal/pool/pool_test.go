package pool

import (
	"context"
	"testing"
	"time"
)

func TestPollAcquireTakesFreeSlot(t *testing.T) {
	l := NewLimiter(1)
	ctx := context.Background()
	if !PollAcquire(ctx, l, nil) {
		t.Fatal("PollAcquire failed on an idle limiter")
	}
	l.Release()
}

func TestPollAcquireNilLimiter(t *testing.T) {
	if !PollAcquire(context.Background(), nil, nil) {
		t.Fatal("nil limiter must admit immediately")
	}
}

func TestPollAcquireGivesUp(t *testing.T) {
	l := NewLimiter(1)
	if !l.TryAcquire() {
		t.Fatal("setup: could not take the only slot")
	}
	defer l.Release()
	done := make(chan bool, 1)
	go func() {
		done <- PollAcquire(context.Background(), l, func() bool { return true })
	}()
	select {
	case got := <-done:
		if got {
			t.Fatal("PollAcquire returned true though giveUp fired and the slot was held")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PollAcquire did not honor giveUp on a saturated limiter")
	}
}

func TestPollAcquireHonorsContext(t *testing.T) {
	l := NewLimiter(1)
	if !l.TryAcquire() {
		t.Fatal("setup: could not take the only slot")
	}
	defer l.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		done <- PollAcquire(ctx, l, nil)
	}()
	cancel()
	select {
	case got := <-done:
		if got {
			t.Fatal("PollAcquire returned true after cancellation on a saturated limiter")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PollAcquire did not honor context cancellation")
	}
}

// TestPollAcquireEventuallyWins pins the opportunistic half: a poller
// waiting on a saturated limiter takes the slot soon after it frees.
func TestPollAcquireEventuallyWins(t *testing.T) {
	l := NewLimiter(1)
	if !l.TryAcquire() {
		t.Fatal("setup: could not take the only slot")
	}
	done := make(chan bool, 1)
	go func() {
		done <- PollAcquire(context.Background(), l, nil)
	}()
	time.Sleep(2 * time.Millisecond)
	l.Release()
	select {
	case got := <-done:
		if !got {
			t.Fatal("PollAcquire gave up without giveUp or cancellation")
		}
		l.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("PollAcquire never took the freed slot")
	}
}

// TestAcquireCanceledWhileQueued pins the blocking admission path's
// cancellation: a caller queued on a saturated limiter returns the
// context's error once ctx is canceled, and leaves the queue.
func TestAcquireCanceledWhileQueued(t *testing.T) {
	l := NewLimiter(1)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- l.Acquire(ctx) }()
	for l.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-got:
		if err != context.Canceled {
			t.Fatalf("canceled Acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Acquire never returned")
	}
	if n := l.Waiting(); n != 0 {
		t.Errorf("Waiting() = %d after cancellation, want 0", n)
	}
}
