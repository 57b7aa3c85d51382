package pool

import (
	"context"
	"testing"
	"time"
)

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
