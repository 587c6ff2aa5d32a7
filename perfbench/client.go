package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// callTimeout bounds one HTTP call; a call that takes longer counts as a
// failed operation.
const callTimeout = 30 * time.Second

// client issues the harness's HTTP calls over a single connection.
type client struct {
	base  string
	hc    *http.Client
	spans *spanLog // non-nil in a traced run
}

func newClient(base string, spans *spanLog) *client {
	return &client{base: base, spans: spans, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// call is one finished HTTP call.
type call struct {
	status        int
	body          []byte
	code, message string // the API error envelope, if any
	start, end    time.Time
	err           error
}

func (c call) outcome() outcome { return classify(c.err, c.status, c.code, c.message) }

// do makes one call and, in a traced run, records a client span named
// name (linked to job when it is known).
func (c *client) do(ctx context.Context, name, method, path string, body any, job string) call {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return call{err: err}
		}
		rd = bytes.NewReader(b)
	}
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	r := call{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		r.err = err
		return r
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.end, r.err = time.Now(), err
	if r.err == nil && r.status >= 300 {
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		if json.Unmarshal(r.body, &env) == nil {
			r.code, r.message = env.Error.Code, env.Error.Message
		}
	}
	if c.spans != nil {
		c.spans.addClient(clientSpan{Name: name, Job: job, Start: r.start, End: r.end})
	}
	return r
}

// getJSON fetches an endpoint the run cannot go on without; job links the
// call's span to a job, if it is about one.
func (c *client) getJSON(ctx context.Context, name, path, job string, out any) error {
	r := c.do(ctx, name, http.MethodGet, path, nil, job)
	if r.err != nil {
		return fmt.Errorf("GET %s: %w", path, r.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, r.status, r.message)
	}
	if err := json.Unmarshal(r.body, out); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// health is the part of /healthz the harness reads.
type health struct {
	Engine struct {
		Queued  int `json:"queued"`
		Running int `json:"running"`
	} `json:"engine"`
	Storage struct {
		RecoveredRecords int     `json:"recoveredRecords"`
		RecoverySeconds  float64 `json:"recoverySeconds"`
		DiskBytes        float64 `json:"diskBytes"`
	} `json:"storage"`
	Telemetry struct {
		Samples int `json:"samples"`
	} `json:"telemetry"`
}

// sseTap holds the server-wide /v1/events stream open on its own
// connection, as the dashboard does, and records when each session's
// terminal event arrives.
type sseTap struct {
	mu      sync.Mutex
	ended   map[string]time.Time // job ID → session_end arrival
	pending []string             // ended jobs not yet taken
	err     error
	done    chan struct{}
	cancel  context.CancelFunc
	span    clientSpan
}

// openSSE connects to /v1/events and starts reading it. The stream runs
// until close.
func openSSE(ctx context.Context, base string) (*sseTap, error) {
	ctx, cancel := context.WithCancel(ctx)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	t := &sseTap{ended: map[string]time.Time{},
		done: make(chan struct{}), cancel: cancel, span: clientSpan{Name: "GET /v1/events", Start: time.Now()}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("opening /v1/events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("opening /v1/events: status %d", resp.StatusCode)
	}
	go func() {
		defer close(t.done)
		defer hc.CloseIdleConnections()
		defer resp.Body.Close()
		t.read(ctx, resp.Body)
	}()
	return t, nil
}

// read parses the SSE stream, decoding only the terminal events'
// payloads.
func (t *sseTap) read(ctx context.Context, body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if typ != "session_end" {
				continue
			}
			now := time.Now()
			var e struct {
				Session string `json:"session"`
			}
			if json.Unmarshal([]byte(line[len("data: "):]), &e) != nil || e.Session == "" {
				continue
			}
			t.mu.Lock()
			if _, seen := t.ended[e.Session]; !seen {
				t.ended[e.Session] = now
				t.pending = append(t.pending, e.Session)
			}
			t.mu.Unlock()
		}
	}
	if ctx.Err() == nil {
		t.mu.Lock()
		t.err = sc.Err()
		if t.err == nil {
			t.err = io.ErrUnexpectedEOF
		}
		t.mu.Unlock()
	}
}

// takeEnded returns the jobs whose terminal event arrived since the last
// call.
func (t *sseTap) takeEnded() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.pending
	t.pending = nil
	return out
}

// endedAt returns when the job's terminal event arrived.
func (t *sseTap) endedAt(job string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.ended[job]
	return at, ok
}

// close ends the stream and waits for the reader. It returns the
// stream's error if it broke before close.
func (t *sseTap) close() error {
	t.cancel()
	<-t.done
	t.span.End = time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
