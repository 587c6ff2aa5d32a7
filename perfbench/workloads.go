package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// serverJob is a job as GET /v1/jobs reports it.
type serverJob struct {
	ID          string      `json:"id"`
	Tenant      string      `json:"tenant"`
	State       string      `json:"state"`
	SubmittedAt time.Time   `json:"submittedAt"`
	StartedAt   *time.Time  `json:"startedAt"`
	FinishedAt  *time.Time  `json:"finishedAt"`
	Result      *tuneResult `json:"result"`
	Error       string      `json:"error"`
	Surrogate   string      `json:"surrogate"`
	Pruning     bool        `json:"pruning"`
}

// tuneResult is a done job's result payload.
type tuneResult struct {
	Cluster        string             `json:"cluster"`
	Config         map[string]float64 `json:"config"`
	TunedRuntimeS  float64            `json:"tunedRuntimeS"`
	ImprovementPct float64            `json:"improvementPct"`
	TuningCostUSD  float64            `json:"tuningCostUSD"`
	WarmStarted    bool               `json:"warmStarted"`
	ActiveDims     int                `json:"activeDims"`
}

// jobSample is one submitted job as the harness saw it.
type jobSample struct {
	req request
	// due is when the request was scheduled, sent when it went out.
	due, sent time.Time
	// submit is the submission call: POST /v1/tune (solo, which returns
	// when the job is done) or POST /v1/jobs.
	submit call
	id     string
	// job is the server's final record of the job, nil if the
	// submission was refused.
	job *serverJob
}

// readSample is one operator read.
type readSample struct {
	kind string
	ms   float64
}

// runner drives one workload against a running server.
type runner struct {
	c     *client
	tap   *sseTap  // the /v1/events stream, held in a traced run only
	spans *spanLog // non-nil in a traced run

	seed       int64
	window     time.Duration
	closedLoop bool // solo: jobs are matched to submissions by order

	jobs     []*jobSample
	reads    []readSample // the read phase after the load
	lateness []float64    // batch send lateness behind t=0, ms

	attempted, failed int
	failures          []string // the first few operational failures
}

// account adds one workload operation to the error accounting.
func (r *runner) account(name string, c call) {
	r.attempted++
	if c.outcome() == opFailed {
		r.fail(fmt.Sprintf("%s: status %d %s %v", name, c.status, c.message, c.err))
	}
}

func (r *runner) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// collectEnded fetches the server spans of each job whose terminal event
// has arrived on the stream, while the server's trace ring still holds
// them. Without the stream (an untraced run) it does nothing.
func (r *runner) collectEnded(ctx context.Context) error {
	if r.tap == nil {
		return nil
	}
	for _, id := range r.tap.takeEnded() {
		if err := r.fetchTrace(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) fetchTrace(ctx context.Context, id string) error {
	var doc traceDoc
	if err := r.c.getJSON(ctx, "GET /v1/jobs/{id}/trace", "/v1/jobs/"+id+"/trace", id, &doc); err != nil {
		return err
	}
	r.spans.addServer(id, doc.TraceEvents)
	return nil
}

// solo runs one tenant in a closed loop on one connection: n POST
// /v1/tune calls, each sent when the previous one has returned.
func (r *runner) solo(ctx context.Context, n int) error {
	r.closedLoop = true
	for _, req := range soloRequests(n) {
		s := &jobSample{req: req}
		s.submit = r.c.do(ctx, "POST /v1/tune", http.MethodPost, "/v1/tune", req, "")
		s.due, s.sent = s.submit.start, s.submit.start
		r.account("POST /v1/tune", s.submit)
		r.jobs = append(r.jobs, s)
		if err := r.collectEnded(ctx); err != nil {
			return err
		}
	}
	return nil
}

// backfill enqueues one whole batch at once over one connection and
// drains it to completion. The batch is fixed work sized from the
// window: each tenant submits one job per three seconds of it, which at
// this commit's throughput drains in about the window.
func (r *runner) backfill(ctx context.Context, deadline time.Time) error {
	perTenant := int(r.window.Seconds()) / 3
	if perTenant < 1 {
		perTenant = 1
	}
	t0 := time.Now()
	for _, req := range backfillBatch(r.seed, perTenant) {
		r.submitAsync(ctx, req, t0)
	}
	return r.drain(ctx, deadline)
}

// submitAsync sends one POST /v1/jobs that was due at due.
func (r *runner) submitAsync(ctx context.Context, req request, due time.Time) {
	s := &jobSample{req: req, due: due}
	s.submit = r.c.do(ctx, "POST /v1/jobs", http.MethodPost, "/v1/jobs", req, "")
	s.sent = s.submit.start
	r.lateness = append(r.lateness, ms(s.sent.Sub(due)))
	r.account("POST /v1/jobs", s.submit)
	if s.submit.outcome() == opOK {
		var j serverJob
		if err := json.Unmarshal(s.submit.body, &j); err == nil {
			s.id = j.ID
		}
	}
	r.jobs = append(r.jobs, s)
}

// drain waits until the engine has no queued or running job, fetching
// finished jobs' traces meanwhile in a traced run. Jobs still unfinished
// at the deadline are counted as lost by the checks.
func (r *runner) drain(ctx context.Context, deadline time.Time) error {
	for time.Now().Before(deadline) {
		if err := r.collectEnded(ctx); err != nil {
			return err
		}
		var h health
		if err := r.c.getJSON(ctx, "GET /healthz", "/healthz", "", &h); err != nil {
			return err
		}
		if h.Engine.Queued == 0 && h.Engine.Running == 0 {
			// The last terminal events may still be in flight on the
			// stream; give them a moment before the final collection.
			if r.tap != nil {
				time.Sleep(20 * time.Millisecond)
			}
			return r.collectEnded(ctx)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return nil
}

// read issues one operator read of the given kind; n picks its target.
func (r *runner) read(ctx context.Context, kind string, n int) {
	var name, path, job string
	switch kind {
	case "query":
		now := time.Now().Unix()
		name = "GET /v1/query"
		path = fmt.Sprintf("/v1/query?metric=%s&from=%d&to=%d&step=5s",
			queryMetrics[n%len(queryMetrics)], now-300, now)
	case "history":
		tenant := fmt.Sprintf("hist-%02d", n%histTenants)
		if len(r.jobs) > 0 {
			tenant = r.jobs[n%len(r.jobs)].req.Tenant
		}
		name = "GET /v1/history"
		path = "/v1/history?limit=50&tenant=" + tenant
	case "explain":
		// Explains rotate over every job of the run, so their latency does
		// not hinge on which job happened to finish last.
		if len(r.jobs) > 0 {
			job = r.jobs[(n/len(readKinds))%len(r.jobs)].id
		}
		if job == "" {
			r.read(ctx, "query", n)
			return
		}
		name = "GET /v1/jobs/{id}/explain"
		path = "/v1/jobs/" + job + "/explain"
	}
	c := r.c.do(ctx, name, http.MethodGet, path, nil, job)
	r.account(name, c)
	if c.outcome() == opOK {
		r.reads = append(r.reads, readSample{kind: kind, ms: ms(c.end.Sub(c.start))})
	}
}

// idleReads is the read phase every workload ends with: after the load
// has drained, n reads in a closed loop against the run-end state.
func (r *runner) idleReads(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		r.read(ctx, readKinds[i%len(readKinds)], i)
	}
}

// attachJobs fetches the server's final job list and links each sample
// to its job: by ID for async submissions, by order for the solo loop
// (one tenant, strictly sequential).
func (r *runner) attachJobs(ctx context.Context) ([]serverJob, error) {
	var all []serverJob
	if err := r.c.getJSON(ctx, "GET /v1/jobs", "/v1/jobs", "", &all); err != nil {
		return nil, err
	}
	byID := make(map[string]*serverJob, len(all))
	for i := range all {
		byID[all[i].ID] = &all[i]
	}
	next := 0
	for _, s := range r.jobs {
		if r.closedLoop && s.submit.outcome() != opFailed {
			for next < len(all) && all[next].Tenant != s.req.Tenant {
				next++
			}
			if next < len(all) {
				s.id = all[next].ID
				next++
			}
		}
		if s.id != "" {
			s.job = byID[s.id]
		}
	}
	return all, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
