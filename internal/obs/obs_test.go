package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registering a counter must return the same counter")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a histogram must panic")
		}
	}()
	r.Histogram("clash_total", "h", nil)
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %g, want 106", got)
	}
	var buf bytes.Buffer
	writeHistogram(&buf, "h", nil, nil, h)
	want := strings.Join([]string{
		`h_bucket{le="1"} 2`,
		`h_bucket{le="2"} 3`,
		`h_bucket{le="4"} 4`,
		`h_bucket{le="+Inf"} 5`,
		`h_sum 106`,
		`h_count 5`,
	}, "\n") + "\n"
	if buf.String() != want {
		t.Fatalf("histogram exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	// Register out of name order; exposition must sort.
	r.Counter("zzz_total", "last")
	vec := r.CounterVec("mid_total", "labeled", "op", "outcome")
	vec.With("select", "ok").Add(3)
	vec.With("map", "error").Inc()
	r.GaugeFunc("aaa_depth", "first", func() float64 { return 1.5 })

	var a, b bytes.Buffer
	r.WritePrometheus(&a)
	r.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatal("two scrapes of an idle registry must be byte-identical")
	}
	out := a.String()
	ia := strings.Index(out, "aaa_depth")
	im := strings.Index(out, "mid_total")
	iz := strings.Index(out, "zzz_total")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE aaa_depth gauge",
		"aaa_depth 1.5",
		`mid_total{op="map",outcome="error"} 1`,
		`mid_total{op="select",outcome="ok"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	got := labelString([]string{"msg"}, []string{"a\"b\\c\nd"})
	want := `{msg="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("labelString = %s, want %s", got, want)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	sp := r.Start(StageSelect)
	sp.End()
	r.CacheHit()
	r.CacheMiss()
	r.LimiterPoll(true)
	r.Observe(StageLimiterWait, time.Second)
	if ts := r.Snapshot(); len(ts.Stages) != 0 || ts.Blocked != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", ts)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
	if ctx := WithRecorder(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("WithRecorder(nil) must keep the context recorder-free")
	}
}

func TestRecorderSnapshotStageOrder(t *testing.T) {
	r := NewRecorder()
	// Record stages in reverse order; the fold must come out in Stage order.
	for _, st := range []Stage{StageSearch, StageEvaluate, StageSelect} {
		sp := r.Start(st)
		sp.End()
	}
	r.Observe(StageLimiterWait, 5*time.Millisecond)
	r.CacheHit()
	r.LimiterPoll(false)
	ts := r.Snapshot()
	var names []string
	for _, st := range ts.Stages {
		names = append(names, st.Stage)
	}
	want := []string{"select", "search", "evaluate", "limiter-wait"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	if ts.CacheHits != 1 || ts.TryMisses != 1 || ts.Blocked != 1 || ts.WaitNanos != int64(5*time.Millisecond) {
		t.Fatalf("counters = %+v", ts)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	ctx := WithRecorder(context.Background(), r)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := FromContext(ctx)
			for i := 0; i < per; i++ {
				sp := rec.Start(StageEvaluate)
				rec.CacheMiss()
				rec.LimiterPoll(i%2 == 0)
				sp.End()
			}
		}()
	}
	wg.Wait()
	ts := r.Snapshot()
	if len(ts.Stages) != 1 || ts.Stages[0].Count != workers*per {
		t.Fatalf("snapshot = %+v, want %d evaluate spans", ts, workers*per)
	}
	if ts.CacheMisses != workers*per || ts.TryHits != workers*per/2 {
		t.Fatalf("counters = %+v", ts)
	}
}

func TestNextReqID(t *testing.T) {
	a, b := NextReqID(), NextReqID()
	if a == b || !strings.HasPrefix(a, "r-") {
		t.Fatalf("req ids: %q then %q", a, b)
	}
}

func TestLoggerDiscard(t *testing.T) {
	lg := NewLogger(nil, 0)
	if lg.Enabled(context.Background(), 0) {
		t.Fatal("nil-writer logger must be disabled")
	}
	var buf bytes.Buffer
	lg = NewLogger(&buf, 0)
	lg.Info("hello", KeyReqID, "r-1")
	if !strings.Contains(buf.String(), "req=r-1") {
		t.Fatalf("log line missing req field: %q", buf.String())
	}
}
