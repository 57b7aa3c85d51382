package serve

import (
	"context"
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sunmap"
	"sunmap/internal/jobs"
	"sunmap/internal/obs"
)

// searchPayload is a /v1/jobs body for a vopd annealing search.
func searchPayload(t *testing.T, budget int) []byte {
	t.Helper()
	raw, err := json.Marshal(sunmap.Request{
		Op: sunmap.OpSearch,
		Search: &sunmap.SearchRequest{
			App:     sunmap.AppSpec{Name: "vopd"},
			Mapping: sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 1000},
			Search:  sunmap.SearchOptions{Budget: budget, Seed: 42},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// foldBlob builds the journal blob searchConduit writes for a set of
// per-chain checkpoints: sorted by chain index, marshaled.
func foldBlob(t *testing.T, byChain map[int]sunmap.SearchCheckpoint) []byte {
	t.Helper()
	blob := make([]sunmap.SearchCheckpoint, 0, len(byChain))
	for _, c := range byChain {
		blob = append(blob, c)
	}
	sort.Slice(blob, func(i, j int) bool { return blob[i].Chain < blob[j].Chain })
	raw, err := json.Marshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSearchConduitStalledJournalNeverBlocksSink: with the journal's
// checkpoint append stalled indefinitely, every chain emission still
// returns; once the journal is released, flush leaves every chain's last
// emission as the job's newest checkpoint, journaled in far fewer
// records than there were emissions.
func TestSearchConduitStalledJournalNeverBlocksSink(t *testing.T) {
	release, stalled := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	var ckptAppends atomic.Int32
	fault := func(recType, id string) error {
		if recType == "ckpt" {
			ckptAppends.Add(1)
			stallOnce.Do(func() { close(stalled) })
			<-release
		}
		return nil
	}
	ckCh, finish := make(chan *jobs.Checkpoint, 1), make(chan struct{})
	store, err := jobs.Open(context.Background(), jobs.Options{Dir: t.TempDir(), Workers: 1, WriteFault: fault},
		func(ctx context.Context, kind string, payload []byte, ck *jobs.Checkpoint) ([]byte, error) {
			ckCh <- ck
			<-finish
			return []byte("{}"), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Submit(context.Background(), sunmap.OpSearch, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	ck := <-ckCh
	defer close(finish)

	sv := &Server{opts: Options{Logger: obs.Discard()}.withDefaults()}
	cp, flush := sv.searchConduit(ck)
	const chains, emissions = 4, 50
	want := map[int]sunmap.SearchCheckpoint{}
	emitted := make(chan time.Duration, 1)
	go func() {
		var worst time.Duration
		for e := 1; e <= emissions; e++ {
			for c := 0; c < chains; c++ {
				cs := sunmap.SearchCheckpoint{Chain: c, Evals: e * cp.Every, Draws: uint64(e*chains + c)}
				start := time.Now()
				cp.Sink(cs)
				worst = max(worst, time.Since(start))
				want[c] = cs
			}
			if e == 1 {
				<-stalled // the writer now sits in a Save that will not return
			}
		}
		emitted <- worst
	}()
	select {
	case worst := <-emitted:
		t.Logf("%d emissions behind a stalled journal; slowest Sink %v", chains*emissions, worst)
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("Sink blocked behind a stalled checkpoint append")
	}
	close(release)
	flush()

	if got, wantRaw := ck.Latest(), foldBlob(t, want); string(got) != string(wantRaw) {
		t.Errorf("newest checkpoint after flush:\n got %s\nwant %s", got, wantRaw)
	}
	if n := ckptAppends.Load(); n < 1 || n >= chains*emissions {
		t.Errorf("%d ckpt records for %d emissions; want at least one and fewer than the emissions", n, chains*emissions)
	}
}

// TestSearchConduitShutdownFlushesNewestEmission: a store shutdown
// interrupts a running search; the journal, replayed by a fresh store,
// holds exactly the blob of each chain's last emission before the
// runner returned — the flush saved what the writer had not yet.
func TestSearchConduitShutdownFlushesNewestEmission(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sv := &Server{sess: sess, opts: Options{CheckpointEvery: 50, Logger: obs.Discard()}.withDefaults()}
	var (
		mu        sync.Mutex
		last      = map[int]sunmap.SearchCheckpoint{}
		firstOnce sync.Once
	)
	first := make(chan struct{})
	// The runner is runJob's search path with the emissions recorded on
	// their way into the conduit.
	run := func(ctx context.Context, kind string, payload []byte, ck *jobs.Checkpoint) ([]byte, error) {
		req, err := sunmap.ParseRequest(payload)
		if err != nil {
			return nil, err
		}
		cp, flush := sv.searchConduit(ck)
		defer flush()
		sink := cp.Sink
		cp.Sink = func(c sunmap.SearchCheckpoint) {
			mu.Lock()
			last[c.Chain] = c
			mu.Unlock()
			sink(c)
			firstOnce.Do(func() { close(first) })
		}
		rep := sess.DoCheckpointed(ctx, *req, cp)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return json.Marshal(rep)
	}

	dir := t.TempDir()
	store, err := jobs.Open(context.Background(), jobs.Options{Dir: dir, Workers: 1}, run)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := store.Submit(context.Background(), sunmap.OpSearch, searchPayload(t, 200000))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-first:
	case <-time.After(60 * time.Second):
		t.Fatal("search never emitted a checkpoint")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	want := foldBlob(t, last)

	// Replay: the interrupted job is re-queued and its runner handed the
	// newest journaled checkpoint.
	replayed := make(chan []byte, 1)
	store2, err := jobs.Open(context.Background(), jobs.Options{Dir: dir, Workers: 1},
		func(ctx context.Context, kind string, payload []byte, ck *jobs.Checkpoint) ([]byte, error) {
			replayed <- ck.Latest()
			<-ctx.Done()
			return nil, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	select {
	case got := <-replayed:
		if string(got) != string(want) {
			t.Errorf("job %s: replayed checkpoint is not the last emission:\n got %s\nwant %s", jb.ID, got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("interrupted job was not re-queued on replay")
	}
}

// TestServeCheckpointRecordOrder: through the real job runner, a job's
// checkpoint writer is joined before its terminal record — no ckpt
// record follows a completed job's result or a cancelled job's final
// state.
func TestServeCheckpointRecordOrder(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		recs = map[string][]string{} // job id -> record types, in append order
	)
	sv, err := NewServer(context.Background(), sess, Options{
		JobsDir:         t.TempDir(),
		JobWorkers:      2,
		CheckpointEvery: 50,
		Logger:          obs.Discard(),
		journalFault: func(recType, id string) error {
			mu.Lock()
			recs[id] = append(recs[id], recType)
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	ctx := context.Background()
	done, err := sv.store.Submit(ctx, sunmap.OpSearch, searchPayload(t, 1000))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := sv.store.Submit(ctx, sunmap.OpSearch, searchPayload(t, 200000))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		jb, err := sv.store.Get(cancelled.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jb.HasCheckpoint {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long search never journaled a checkpoint")
		}
	}
	if _, err := sv.store.Cancel(cancelled.ID); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for id, want := range map[string]jobs.State{done.ID: jobs.StateDone, cancelled.ID: jobs.StateCancelled} {
		jb, err := sv.store.Wait(waitCtx, id)
		if err != nil {
			t.Fatal(err)
		}
		if jb.State != want {
			t.Fatalf("job %s ended %s (%s), want %s", id, jb.State, jb.Error, want)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for id, terminal := range map[string]string{done.ID: "result", cancelled.ID: "state"} {
		types := recs[id]
		ckpts := 0
		for _, typ := range types {
			if typ == "ckpt" {
				ckpts++
			}
		}
		if ckpts == 0 || types[len(types)-1] != terminal {
			t.Errorf("job %s records %v: want ckpt records and %q last", id, types, terminal)
		}
	}
}
