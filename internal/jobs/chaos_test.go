package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// This file is the package-level half of the chaos harness: the store
// is killed and reopened mid-job, its journal is truncated at every
// offset, and its writes are made to fail — and in every scenario each
// acknowledged job must reach a terminal state with the right result.
// The HTTP-level kill/restart test (full server, search job,
// bit-identical SearchReport) lives in the root chaos_test.go.

// counterRunner "computes" by counting payload steps, sending each on
// steps and checkpointing its progress as a JSON int. Resume picks
// up from the checkpoint, so the result — the step sequence actually
// executed — reveals whether a restart re-ran finished work.
func counterRunner(steps chan<- int) Runner {
	return func(ctx context.Context, kind string, payload []byte, ck *Checkpoint) ([]byte, error) {
		var total int
		if err := json.Unmarshal(payload, &total); err != nil {
			return nil, err
		}
		start := 0
		if raw := ck.Latest(); raw != nil {
			if err := json.Unmarshal(raw, &start); err != nil {
				return nil, err
			}
		}
		for i := start; i < total; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			select {
			case steps <- i:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			b, _ := json.Marshal(i + 1)
			if err := ck.Save(b); err != nil {
				return nil, err
			}
		}
		return json.Marshal(map[string]int{"from": start, "total": total})
	}
}

// TestKillRestartResumesFromCheckpoint is the store-level recovery
// gate: a job interrupted by store teardown (no terminal record — the
// crash path) must be re-queued on reopen and resume from its journaled
// checkpoint, not from zero.
func TestKillRestartResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Unbuffered, so the runner cannot finish all 40 steps before the
	// kill: it waits for each step to be taken.
	steps := make(chan int)
	s, err := Open(context.Background(), Options{Dir: dir, Workers: 1}, counterRunner(steps))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(40)
	jb, err := s.Submit(context.Background(), "count", payload)
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then kill the store mid-run.
	for i := 0; i < 10; i++ {
		select {
		case <-steps:
		case <-time.After(10 * time.Second):
			t.Fatal("runner never progressed")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(context.Background(), Options{Dir: dir, Workers: 1}, counterRunner(make(chan int, 40)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Get(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateQueued && got.State != StateRunning {
		t.Fatalf("interrupted job replayed as %s", got.State)
	}
	if !got.HasCheckpoint {
		t.Fatal("checkpoint lost across restart")
	}
	fin := waitTerminal(t, s2, jb.ID)
	if fin.State != StateDone {
		t.Fatalf("recovered job ended %s (%s)", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one interrupted, one resumed)", fin.Attempts)
	}
	res, _, err := s2.Result(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := json.Unmarshal(res, &out); err != nil {
		t.Fatal(err)
	}
	if out["total"] != 40 || out["from"] == 0 {
		t.Fatalf("resume started from %d of %d — a restart-from-zero", out["from"], out["total"])
	}
}

// TestTruncatedJournalEveryOffset replays a journal truncated at every
// byte offset: the store must open cleanly on all of them (corrupt
// tails are discarded, never fatal) and keep a prefix of the submitted
// jobs.
func TestTruncatedJournalEveryOffset(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{})
	blocked := func(ctx context.Context, kind string, payload []byte, ck *Checkpoint) ([]byte, error) {
		select {
		case <-hold:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	s, err := Open(context.Background(), Options{Dir: dir, Workers: 1}, blocked)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(context.Background(), "blocked", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(hold)
	s.Close()
	journalPath := filepath.Join(dir, "jobs.journal")
	full, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	prev := -1
	for cut := 0; cut <= len(full); cut++ {
		sub := filepath.Join(t.TempDir(), "j")
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "jobs.journal"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(context.Background(), Options{Dir: sub, Workers: 1}, blocked)
		if err != nil {
			t.Fatalf("cut %d/%d: open failed: %v", cut, len(full), err)
		}
		n := len(re.List())
		if n < prev-4 { // monotone modulo per-frame boundaries
			t.Fatalf("cut %d: recovered %d jobs after %d at a longer prefix", cut, n, prev)
		}
		prev = n
		re.Close()
	}
	// The untouched journal recovers everything.
	re, err := Open(context.Background(), Options{Dir: dir, Workers: 1}, blocked)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := len(re.List()); n != 4 {
		t.Fatalf("intact journal recovered %d jobs, want 4", n)
	}
}

// TestGarbageTailDiscarded appends raw garbage after valid frames: the
// replay must keep the valid prefix and truncate the rest, and the
// reopened store must keep journaling correctly.
func TestGarbageTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(context.Background(), Options{Dir: dir}, echoRunner)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := s.Submit(context.Background(), "echo", []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, jb.ID)
	s.Close()
	journalPath := filepath.Join(dir, "jobs.journal")
	f, err := os.OpenFile(journalPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\xff\xff\xff\xffgarbage beyond the last frame")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(context.Background(), Options{Dir: dir}, echoRunner)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res, fin, err := s2.Result(jb.ID)
	if err != nil || fin.State != StateDone || string(res) != "ba" {
		t.Fatalf("after garbage tail: res %q, job %+v, err %v", res, fin, err)
	}
	// And the store still accepts and completes new durable work.
	jb2, err := s2.Submit(context.Background(), "echo", []byte("cd"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s2, jb2.ID); fin.State != StateDone {
		t.Fatalf("post-recovery job: %+v", fin)
	}
}

// TestJournalFaultsDegradeGracefully injects checkpoint-write failures
// mid-run: the runner sees the error from Save, but jobs already
// admitted still reach terminal states, and the failures are counted.
func TestJournalFaultsDegradeGracefully(t *testing.T) {
	var failCkpts bool
	s, err := Open(context.Background(), Options{
		Dir: t.TempDir(),
		WriteFault: func(recType, id string) error {
			if failCkpts && recType == recCkpt {
				return errors.New("injected ckpt failure")
			}
			return nil
		},
	}, func(ctx context.Context, kind string, payload []byte, ck *Checkpoint) ([]byte, error) {
		if err := ck.Save([]byte("1")); err != nil {
			// Degrade: keep computing without durable checkpoints.
			_ = err
		}
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	failCkpts = true
	jb, err := s.Submit(context.Background(), "w", nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, jb.ID); fin.State != StateDone {
		t.Fatalf("job under ckpt faults: %+v", fin)
	}
	if st := s.Stats(); st.WriteFailures == 0 {
		t.Fatalf("write failures not counted: %+v", st)
	}
}
