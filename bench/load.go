package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sunmap"
	"sunmap/serve"
)

// sample is one op's outcome as the load generator saw it.
type sample struct {
	key string
	lat time.Duration
	err error
	// respBytes is the response body size of served ops.
	respBytes int
	// instance is the index of the instance that served the op.
	instance int
	// Closed loop: the op's round and when it started and ended (from
	// the loop start).
	round      int
	start, end time.Duration
	// Open loop: the op's step and when that step ends, when the op was
	// due and sent (all from the schedule start), and how late the
	// generator sent it.
	step               int
	stepEnd, due, sent time.Duration
	lag                time.Duration
	// Jobs: the submit round trip, the wait from submit to the first
	// poll that saw the job running, and each poll's round trip.
	submit, queueWait time.Duration
	polls             []time.Duration
}

// closedLoop runs the given number of clients, each sending its next op
// as soon as the previous one completes, and stops on the first round
// boundary after seconds have passed — always after at least one round.
func closedLoop(clients int, seconds float64, next roundSource, do func(id int64, o op) []sample) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		queue   []op
		id      int64
		round   int
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if len(queue) == 0 {
					if id > 0 && time.Now().After(deadline) {
						mu.Unlock()
						return
					}
					queue = next()
					round++
				}
				o := queue[0]
				queue = queue[1:]
				id++
				myID, myRound := id, round
				mu.Unlock()
				t := time.Since(start)
				ss := do(myID, o)
				for i := range ss {
					ss[i].round, ss[i].start, ss[i].end = myRound, t, time.Since(start)
				}
				mu.Lock()
				samples = append(samples, ss...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at, stepEnd time.Duration
	step        int
	o           op
	body        []byte
}

// spinWindow is how long before an arrival's due time its sender stops
// sleeping and yields until the time comes.
const spinWindow = time.Millisecond

// openLoop sends each arrival at its due time over conns sender
// goroutines, each holding one keep-alive connection; an arrival due
// while both senders are busy waits for the first free one. Latency is
// timed from the due time, so that queueing counts.
func openLoop(conns int, sched []arrival, send func(id int64, a arrival) sample) ([]sample, time.Duration) {
	samples := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(sched)) {
					return
				}
				a := sched[i]
				free := time.Since(start)
				// Timer wake-ups run up to a few hundred microseconds late,
				// a tenth of a warm request; the last stretch yields instead.
				if d := a.at - free - spinWindow; d > 0 {
					time.Sleep(d)
				}
				for time.Since(start) < a.at {
					runtime.Gosched()
				}
				sent := time.Since(start)
				s := send(i+1, a)
				s.lat = time.Since(start) - a.at
				s.step, s.stepEnd, s.due, s.sent = a.step, a.stepEnd, a.at, sent
				s.lag = sent - max(a.at, free)
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// server is a serve.Server behind a real loopback http.Server.
type server struct {
	sv   *serve.Server
	hs   *http.Server
	done chan error
	base string

	closeOnce sync.Once
	closeErr  error
}

// startServer serves the session on an ephemeral loopback port.
func startServer(ctx context.Context, sess *sunmap.Session, opts serve.Options) (*server, error) {
	opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	sv, err := serve.NewServer(ctx, sess, opts)
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sv.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	s := &server{
		sv:   sv,
		hs:   &http.Server{Handler: sv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for the serve goroutine, then
// closes the job store. Later calls return the first call's error.
func (s *server) close() error {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := s.hs.Shutdown(ctx)
		if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		s.closeErr = errors.Join(err, s.sv.Close())
	})
	return s.closeErr
}

// newClient returns an HTTP client holding at most conns keep-alive
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// roundTrip sends one request and reads the whole response body, so the
// connection returns to the keep-alive pool.
func roundTrip(ctx context.Context, c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// transportMS is the median GET /healthz round trip: the cost of the
// HTTP transport alone.
func transportMS(ctx context.Context, c *http.Client, base string) (float64, error) {
	var rtts []time.Duration
	for i := 0; i < 50; i++ {
		t := time.Now()
		st, _, err := roundTrip(ctx, c, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return 0, fmt.Errorf("probing transport: %w", err)
		}
		if st != http.StatusOK {
			return 0, fmt.Errorf("probing transport: status %d", st)
		}
		rtts = append(rtts, time.Since(t))
	}
	return percentile(rtts, 0.5), nil
}
