package sunmap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"sunmap"
	"sunmap/serve"
	"sunmap/serve/client"
)

// This file is the service-level half of the chaos harness (the store-
// level half lives in internal/jobs): a real listener is torn down
// mid-search — the SIGKILL-equivalent for the job, since no terminal
// record is written — and restarted over the same journal directory.
// The acceptance criterion: the interrupted job resumes from its
// journaled checkpoint and its final SearchReport is bit-identical to
// an uninterrupted run of the same request.

// startJobServer runs serve.ListenAndServe on a random port over dir
// and returns the base URL plus the server's error channel.
func startJobServer(t *testing.T, ctx context.Context, dir string) (string, chan error) {
	t.Helper()
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	opts := serve.Options{
		JobsDir:         dir,
		JobWorkers:      1,
		CheckpointEvery: 50,
		OnListen:        func(a net.Addr) { addrCh <- a },
	}
	done := make(chan error, 1)
	go func() {
		done <- serve.ListenAndServe(ctx, "127.0.0.1:0", sess, opts, time.Second)
	}()
	select {
	case addr := <-addrCh:
		return fmt.Sprintf("http://%s", addr), done
	case err := <-done:
		t.Fatalf("server died before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never listened")
	}
	return "", nil
}

func TestServerKillRestartResumesSearchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second kill/restart harness")
	}
	dir := t.TempDir()
	// The budget sets how long the search outlives its first checkpoint
	// (emitted after CheckpointEvery evaluations per chain). It must
	// dwarf the kill latency — poll interval, HTTP round trip, server
	// teardown — even on a loaded machine, or the job can finish and
	// journal its result before the kill lands. 200,000 evaluations run
	// for roughly half a second on one core, against a few milliseconds
	// of latency.
	req := sunmap.Request{
		ID: "durable-search",
		Op: sunmap.OpSearch,
		Search: &sunmap.SearchRequest{
			App:     sunmap.AppSpec{Name: "vopd"},
			Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 1000},
			Search:  sunmap.SearchOptions{Budget: 200000, Seed: 42},
		},
	}

	// Phase 1: submit, wait for the first durable checkpoint, kill.
	ctx1, kill := context.WithCancel(context.Background())
	url1, done1 := startJobServer(t, ctx1, dir)
	cl1 := client.New(url1, client.Options{Seed: 1})
	jb, err := cl1.Submit(context.Background(), req)
	if err != nil {
		kill()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		snap, err := cl1.Job(context.Background(), jb.ID)
		if err != nil {
			kill()
			t.Fatal(err)
		}
		if snap.State.Terminal() {
			kill()
			t.Fatalf("job finished before the kill — raise the budget (state %s)", snap.State)
		}
		if snap.HasCheckpoint {
			break
		}
		if time.Now().After(deadline) {
			kill()
			t.Fatal("no checkpoint ever became durable")
		}
		time.Sleep(5 * time.Millisecond)
	}
	kill()
	select {
	case err := <-done1:
		if err != nil {
			t.Fatalf("server teardown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server never shut down")
	}

	// Phase 2: restart over the same journal; the replayed job must
	// resume (attempt 2) and complete.
	ctx2, stop := context.WithCancel(context.Background())
	defer stop()
	url2, done2 := startJobServer(t, ctx2, dir)
	cl2 := client.New(url2, client.Options{Seed: 2})
	got, err := cl2.Job(context.Background(), jb.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	if got.State.Terminal() {
		t.Fatalf("job finished before the kill — raise the budget (state %s)", got.State)
	}
	if !got.HasCheckpoint {
		t.Fatal("checkpoint lost across restart")
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	fin, err := cl2.Wait(waitCtx, jb.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != "done" {
		t.Fatalf("recovered job ended %s (%s)", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one interrupted, one resumed)", fin.Attempts)
	}
	rep, err := cl2.Result(context.Background(), jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() != nil || rep.Search == nil {
		t.Fatalf("recovered report: %+v", rep)
	}

	// Phase 3: the same request, uninterrupted and in-process, must
	// produce a bit-identical SearchReport.
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	want := sess.Do(context.Background(), req)
	if want.Err() != nil {
		t.Fatal(want.Err())
	}
	gotJSON, _ := json.Marshal(rep.Search)
	wantJSON, _ := json.Marshal(want.Search)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("resumed search differs from uninterrupted run:\n%s\n%s", gotJSON, wantJSON)
	}

	stop()
	select {
	case err := <-done2:
		if err != nil {
			t.Errorf("second server teardown: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("second server never shut down")
	}
}
