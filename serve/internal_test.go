package serve

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"sunmap"
)

// brokenWriter is a ResponseWriter whose body writes fail after the
// header is committed — the client hung up mid-response.
type brokenWriter struct {
	hdr    http.Header
	status int
}

func (w *brokenWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *brokenWriter) WriteHeader(status int)    { w.status = status }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("peer reset") }

// TestWriteJSONFailuresCounted: response-write failures (the errors
// writeJSON can no longer surface to that client) are counted into the
// serve stats envelope and logged, never silently dropped.
func TestWriteJSONFailuresCounted(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	sv, err := NewServer(context.Background(), sess, Options{Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })

	sv.writeJSON(&brokenWriter{}, http.StatusOK, map[string]string{"status": "ok"})
	if got := sv.writeFails.Load(); got != 1 {
		t.Fatalf("write failures = %d, want 1", got)
	}
	if !strings.Contains(logged.String(), "writing response") {
		t.Errorf("failure not logged: %q", logged.String())
	}

	// Encode failures on an otherwise healthy writer count too.
	rec := &recordingWriter{}
	sv.writeJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if got := sv.writeFails.Load(); got != 2 {
		t.Fatalf("write failures = %d, want 2", got)
	}

	st := sv.stats()
	if st.WriteFailures != 2 {
		t.Errorf("stats envelope reports %d write failures, want 2", st.WriteFailures)
	}
}

// recordingWriter accepts writes; only the payload's encodability can
// fail.
type recordingWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *recordingWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *recordingWriter) WriteHeader(status int)      { w.status = status }
func (w *recordingWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

func TestRetrySeconds(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{{"0s", 1}, {"1s", 1}, {"1001ms", 2}, {"30s", 30}}
	for _, tc := range cases {
		d, err := time.ParseDuration(tc.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := retrySeconds(d); got != tc.want {
			t.Errorf("retrySeconds(%s) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
