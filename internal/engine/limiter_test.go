package engine

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"sunmap/internal/obs"
)

// TestAcquireCanceledWhileQueued pins the blocking admission path's
// cancellation: a caller queued on a saturated limiter returns the
// context's error once ctx is canceled, and leaves the queue.
func TestAcquireCanceledWhileQueued(t *testing.T) {
	l := NewLimiter(1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer l.release()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- l.acquire(ctx) }()
	for l.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-got:
		if err != context.Canceled {
			t.Fatalf("canceled acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled acquire never returned")
	}
	if n := l.Waiting(); n != 0 {
		t.Errorf("Waiting() = %d after cancellation, want 0", n)
	}
}

// TestLimiterExposesNoSlotMethods pins the admission rule at the type
// level: outside this package a Limiter can be sized and observed but
// never acquired, so every fan-out elsewhere goes through Fan.
func TestLimiterExposesNoSlotMethods(t *testing.T) {
	typ := reflect.TypeOf((*Limiter)(nil))
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if want := []string{"Cap", "InFlight", "Waiting"}; !slices.Equal(got, want) {
		t.Errorf("*Limiter exports %v, want exactly %v", got, want)
	}
}

// TestFanRetiredSpareWorkerNotCounted runs a top-level Fan of four
// sleeping units at parallelism 2 on a 2-slot limiter with one slot held
// elsewhere. One worker runs every unit; the other waits for the held
// slot until Fan retires it. That retirement is Fan's housekeeping: it
// must show neither as a blocked acquisition in the trace nor as a
// cancelled one in the process metrics.
func TestFanRetiredSpareWorkerNotCounted(t *testing.T) {
	limit := NewLimiter(2)
	if err := limit.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer limit.release()
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	cancelled := acquireCancelled.Value()
	var ran atomic.Int32
	err := Fan(ctx, 4, Options{Parallelism: 2, Limit: limit}, func(context.Context, int) error {
		ran.Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("%d units ran, want 4", ran.Load())
	}
	if ts := rec.Snapshot(); ts.Blocked != 0 || ts.WaitNanos != 0 {
		t.Errorf("trace reads %d blocked acquisitions (%d ns), want none", ts.Blocked, ts.WaitNanos)
	}
	if d := acquireCancelled.Value() - cancelled; d != 0 {
		t.Errorf("cancelled acquisitions rose by %d, want 0", d)
	}
	if n := limit.InFlight(); n != 1 {
		t.Errorf("%d slots held after Fan, want only the outside one", n)
	}
}

// TestFanCancelledWhileQueuedCounted is the other half: a worker queued
// for a slot when the caller cancels is a real cancelled acquisition.
func TestFanCancelledWhileQueuedCounted(t *testing.T) {
	limit := NewLimiter(1)
	if err := limit.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer limit.release()
	rec := obs.NewRecorder()
	ctx, cancel := context.WithCancel(obs.WithRecorder(context.Background(), rec))
	cancelled := acquireCancelled.Value()
	done := make(chan error, 1)
	go func() {
		done <- Fan(ctx, 2, Options{Parallelism: 1, Limit: limit}, func(context.Context, int) error {
			t.Error("a unit ran without a slot")
			return nil
		})
	}()
	for limit.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Fan returned %v, want context.Canceled", err)
	}
	if ts := rec.Snapshot(); ts.Blocked != 1 {
		t.Errorf("trace reads %d blocked acquisitions, want 1", ts.Blocked)
	}
	if d := acquireCancelled.Value() - cancelled; d != 1 {
		t.Errorf("cancelled acquisitions rose by %d, want 1", d)
	}
}
