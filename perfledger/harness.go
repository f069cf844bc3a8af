package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"aspen/internal/fleet"
	"aspen/internal/lang"
	"aspen/internal/serve"
	"aspen/internal/store"
)

// stack is one set-up of the system under test: an aspend node
// (serve.Server), optionally with a durable store, and optionally on a
// loopback listener with a fleet.Router in front of it on its own.
type stack struct {
	srv       *serve.Server
	st        *store.Store
	stateDir  string
	node      *http.Server
	nodeURL   string
	rt        *fleet.Router
	router    *http.Server
	routerURL string
}

type stackOpts struct {
	router   bool   // serve the node on loopback with a fleet.Router in front
	stateDir string // durable store directory ("" = no store)
}

// startStack constructs the system the way cmd/aspend and
// cmd/aspen-router do, serving the JSON and XML grammars. Every call
// builds fresh grammar definitions, so set-up pays the full compile.
func startStack(o stackOpts) (*stack, error) {
	s := &stack{stateDir: o.stateDir}
	opts := serve.Options{Languages: []*lang.Language{lang.JSON(), lang.XML()}}
	if o.stateDir != "" {
		st, err := store.Open(o.stateDir)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		s.st = st
		opts.Store = st
	}
	srv, err := serve.New(opts)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	s.srv = srv
	if o.router {
		s.node, s.nodeURL, err = listen(srv.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
		rt, err := fleet.New(fleet.Options{Nodes: []string{s.nodeURL}})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("start router: %w", err)
		}
		s.rt = rt
		s.router, s.routerURL, err = listen(rt.Handler())
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// listen serves h on an ephemeral loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed at Shutdown
	return hs, "http://" + ln.Addr().String(), nil
}

// close stops everything the stack started and waits for it.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.router != nil {
		_ = s.router.Shutdown(ctx)
	}
	if s.rt != nil {
		s.rt.Close()
	}
	if s.srv != nil {
		_ = s.srv.Drain(ctx)
	}
	if s.node != nil {
		_ = s.node.Shutdown(ctx)
	}
	if s.st != nil {
		_ = s.st.Close()
	}
	if s.stateDir != "" {
		_ = os.RemoveAll(s.stateDir)
	}
}

// stateRoot is where durable-store directories live: inside the
// checkout, beside the build output, and removed at exit.
const stateRoot = ".bench_build/state"

var stateSeq int

func newStateDir() string {
	stateSeq++
	return filepath.Join(stateRoot, fmt.Sprintf("%d-%d", os.Getpid(), stateSeq))
}

// newClient returns an HTTP client limited to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// answer is a parse response as the client decodes it. The pointer
// fields detect a missing key.
type answer struct {
	Accepted      *bool  `json:"accepted"`
	Bytes         *int   `json:"bytes"`
	Tokens        *int   `json:"tokens"`
	Partial       bool   `json:"partial"`
	Error         string `json:"error"`
	LexScanCycles int    `json:"lexScanCycles"`
	QueueNS       int64  `json:"queueNs"`
}

// errRefused marks an operation the system refused (429/503); errWrong
// marks an answer that disagrees with the oracle or is malformed.
var (
	errRefused = errors.New("refused")
	errWrong   = errors.New("wrong answer")
)

// decodeAnswer checks the status and the presence of the verdict,
// bytes and tokens fields.
func decodeAnswer(status int, body []byte) (answer, error) {
	var a answer
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		return a, fmt.Errorf("%w: status %d", errRefused, status)
	case status != http.StatusOK:
		return a, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("%w: undecodable answer: %v", errWrong, err)
	}
	if a.Accepted == nil || a.Bytes == nil || a.Tokens == nil {
		return a, fmt.Errorf("%w: answer lacks accepted, bytes or tokens: %s", errWrong, body)
	}
	return a, nil
}

// checkVerdict compares a final answer for d with the oracle's verdict.
// An accepted document must also report its full length and a nonzero
// token count.
func checkVerdict(d doc, a answer) error {
	if *a.Accepted != d.valid {
		return fmt.Errorf("%w: %s document of %d bytes: accepted=%v, oracle says %v (%s)",
			errWrong, d.class, len(d.data), *a.Accepted, d.valid, a.Error)
	}
	if d.valid && (*a.Bytes != len(d.data) || *a.Tokens <= 0) {
		return fmt.Errorf("%w: %s document of %d bytes answered bytes=%d tokens=%d",
			errWrong, d.class, len(d.data), *a.Bytes, *a.Tokens)
	}
	return nil
}

// postInproc sends d to h in-process, without sockets.
func postInproc(h http.Handler, path string, data []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// post sends data to url over c.
func post(c *http.Client, url string, data []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// tally counts operations and their failures for the result line.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	firstErr  error
}

// note records one operation's outcome. Refusals and errors count as
// failed; a wrong answer also makes the run incorrect.
func (t *tally) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if errors.Is(err, errWrong) {
		t.wrong++
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// heapPeak samples the heap in use (live and unswept objects plus
// unused space in in-use spans) every few milliseconds and keeps the
// peak of every second.
type heapPeak struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	t0 := time.Now()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(samples)
			sec := int(time.Since(t0) / time.Second)
			for len(h.peaks) <= sec {
				h.peaks = append(h.peaks, 0)
			}
			if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.peaks[sec] {
				h.peaks[sec] = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the median of the per-second peaks
// in MiB: the peak a typical second of the run reaches, which one
// badly timed collection cannot move the way it moves the overall peak.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	v := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		v[i] = float64(p) / (1 << 20)
	}
	return median(v)
}

// setupGap separates consecutive set-ups, so that the median samples
// several seconds of the host's scheduling instead of one.
const setupGap = 100 * time.Millisecond

// timeSetups builds a stack n times, timing each from construction to
// the first accepted answer, and returns the median set-up time in
// seconds together with the last stack, left running. Each set-up
// starts from a collected heap, so earlier ones leave it no garbage.
func timeSetups(n int, build func() (*stack, error), first func(*stack) error) (float64, *stack, error) {
	var times []float64
	var s *stack
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			time.Sleep(setupGap)
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = build(); err != nil {
			return 0, nil, err
		}
		if err := first(s); err != nil {
			s.close()
			return 0, nil, fmt.Errorf("first answer: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), s, nil
}

// firstValid returns the first document the oracle accepts.
func firstValid(docs []doc) doc {
	for _, d := range docs {
		if d.valid {
			return d
		}
	}
	panic("perfledger: pool holds no valid document")
}
