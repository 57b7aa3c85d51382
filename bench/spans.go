package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one benchmark-side timing around a top-level call into the
// program. Spans of one op share Op; Parent is 0 for an op's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, which is the untraced runs' path.
type spanLog struct {
	t0 time.Time
	mu sync.Mutex
	s  []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, op int64, parent int) int {
	if l == nil {
		return 0
	}
	start := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.s = append(l.s, span{ID: len(l.s) + 1, Parent: parent, Op: op, Name: name, Start: start})
	return len(l.s)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	end := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.s[id-1].End = end
	l.mu.Unlock()
}

// write saves the spans and the program's own stage trace as JSON.
func (l *spanLog) write(path string, stages any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans  []span `json:"spans"`
		Stages any    `json:"stages"`
	}{l.s, stages})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
