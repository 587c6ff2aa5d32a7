// Command perfbench is seamlesstune's end-to-end load benchmark. It
// starts tuneserve on a fresh copy of a seeded write-ahead-log data
// directory, drives one workload over HTTP with at most two connections,
// checks every job's output, and prints its metrics: the end-to-end ones
// with -trace 0, the per-layer attribution with -trace 1. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"job_p50_ms": {"value": 151.2, "unit": "ms"}, ...}}
//
// Run it through run.sh, which builds this harness and tuneserve from
// the checkout first; see README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// Run-shape constants.
const (
	// runBudget bounds a whole run: every process is stopped and the
	// result printed well inside three minutes.
	runBudget = 170 * time.Second
	// drainGrace is how long after the load window jobs may take to
	// finish before the unfinished ones count as lost.
	drainGrace = 60 * time.Second
	// idleReadCount is the size of the read phase after the load, and
	// readSettle the pause before it.
	idleReadCount = 600
	readSettle    = 2 * time.Second
	// setupStarts is how many server starts set-up times; setup_s is
	// their median and the last one serves the load.
	setupStarts = 11
	// probeAppends and probeQueries size the layer probes.
	probeAppends = 400
	probeQueries = 2000
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	tuneserve string
	work      string
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "solo or backfill")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the generated requests and the seeded history derive from it")
	fs.IntVar(&cfg.seconds, "seconds", 20, "load window in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for the end-to-end metrics")
	fs.StringVar(&cfg.tuneserve, "tuneserve", "", "tuneserve binary under test")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for run files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case cfg.workload != "solo" && cfg.workload != "backfill":
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (solo, backfill)\n", cfg.workload)
		return 2
	case cfg.tuneserve == "":
		fmt.Fprintln(stderr, "perfbench: -tuneserve is required")
		return 2
	case cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1):
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	if err := bench(ctx, cfg, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench runs one workload end to end.
func bench(ctx context.Context, cfg config, stdout, stderr io.Writer) error {
	runDir, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return err
	}
	outDir := filepath.Join(cfg.work, "perfbench-out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	m := &measurement{workload: cfg.workload, seed: cfg.seed, traced: cfg.trace == 1}
	template := filepath.Join(runDir, "template")
	t := time.Now()
	if m.histRecords, err = seedHistory(template, cfg.seed); err != nil {
		return fmt.Errorf("seeding history: %w", err)
	}
	fmt.Fprintf(stderr, "perfbench: seeded %d history records in %v\n", m.histRecords, time.Since(t).Round(time.Millisecond))

	// Set-up: start the server setupStarts times, each on a fresh copy of
	// the template; the last one serves the load.
	var srv *server
	for i := 0; i < setupStarts; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		if err := copyDir(template, dir); err != nil {
			return err
		}
		start := time.Now()
		s, err := startServer(cfg.tuneserve, dir, filepath.Join(runDir, fmt.Sprintf("tuneserve-%d.log", i)))
		if err != nil {
			return err
		}
		d, err := s.waitHealthy(ctx, start)
		if err != nil {
			s.stop()
			return err
		}
		m.setups = append(m.setups, d.Seconds())
		if i == setupStarts-1 {
			srv = s
			break
		}
		if err := s.stop(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	defer srv.stop()
	pid := srv.cmd.Process.Pid

	var spans *spanLog
	if m.traced {
		spans = newSpanLog()
	}
	c := newClient(srv.base, spans)
	defer c.close()
	// Let lazy set-up finish before measuring: the telemetry store's first
	// sample, which the operator's range queries read.
	var h health
	for {
		if err := c.getJSON(ctx, "GET /healthz", "/healthz", "", &h); err != nil {
			return err
		}
		if h.Telemetry.Samples > 0 {
			break
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	m.recoveredStart, m.recoveryS, m.diskBefore = h.Storage.RecoveredRecords, h.Storage.RecoverySeconds, h.Storage.DiskBytes
	m.before = &registry{}
	if err := c.getJSON(ctx, "GET /metrics", "/metrics?format=json", "", m.before); err != nil {
		return err
	}

	r := &runner{c: c, spans: spans, seed: cfg.seed, window: time.Duration(cfg.seconds) * time.Second}
	m.r = r
	// A traced run holds the event stream to learn when to fetch each
	// job's spans.
	if m.traced {
		r.attempted++
		if r.tap, err = openSSE(ctx, srv.base); err != nil {
			return err
		}
	}
	cpu0, err := cpuTime(pid)
	if err != nil {
		return err
	}
	gen0 := selfCPU()
	loadStart := time.Now()
	deadline := time.Now().Add(r.window + drainGrace)
	switch cfg.workload {
	case "solo":
		err = r.solo(ctx, soloJobCount(cfg.seconds))
	case "backfill":
		err = r.backfill(ctx, deadline)
	}
	if err != nil {
		return err
	}
	cpu1, err := cpuTime(pid)
	if err != nil {
		return err
	}
	m.serverCPU, m.genCPU = cpu1-cpu0, selfCPU()-gen0
	m.after = &registry{}
	if err := c.getJSON(ctx, "GET /metrics", "/metrics?format=json", "", m.after); err != nil {
		return err
	}
	if err := c.getJSON(ctx, "GET /healthz", "/healthz", "", &h); err != nil {
		return err
	}
	m.diskAfter = h.Storage.DiskBytes
	if m.all, err = r.attachJobs(ctx); err != nil {
		return err
	}
	if r.tap != nil {
		if err := r.collectEnded(ctx); err != nil {
			return err
		}
		if err := r.tap.close(); err != nil {
			r.fail(fmt.Sprintf("GET /v1/events: stream broke: %v", err))
		}
		if spans != nil {
			spans.addClient(r.tap.span)
		}
	}
	// The read phase starts once the drained server has had a moment to
	// settle, so its first reads do not race the last jobs' clean-up.
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(readSettle):
	}
	r.idleReads(ctx, idleReadCount)
	if m.peakRSSKB, err = peakRSS(pid); err != nil {
		return err
	}
	c.close()
	if err := srv.stop(); err != nil {
		return err
	}

	// solo's results must not depend on the run: a second server on a
	// fresh copy of the same history must return the same first results.
	if r.closedLoop {
		if m.replayDigest, err = replaySolo(ctx, cfg.tuneserve, template, runDir); err != nil {
			return fmt.Errorf("solo replay: %w", err)
		}
	}

	// Layer probes over the run's own data.
	st, err := recoverStore(srv.dir)
	if err != nil {
		return fmt.Errorf("replaying the run-end data dir: %w", err)
	}
	m.recordsEnd = st.Len()
	evPerRec := 0.0
	if recs := counterDelta(m.before, m.after, "storage_records_total", "", ""); recs > 0 {
		evPerRec = counterDelta(m.before, m.after, "storage_events_total", "", "") / recs
	}
	if m.appendWaits, err = probeAppendWait(filepath.Join(runDir, "probe-wal"), st, evPerRec, probeAppends); err != nil {
		return fmt.Errorf("append probe: %w", err)
	}
	m.queryTimes = probeQuery(st, probeQueries)

	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	digestPath := base + "-digest.txt"
	if b, err := os.ReadFile(digestPath); err == nil {
		m.priorDigest = string(b)
	}
	ev := evaluate(m)
	if ev.digest != "" && m.priorDigest == "" && len(ev.checks) == 0 {
		if err := os.WriteFile(digestPath, []byte(ev.digest), 0o644); err != nil {
			return err
		}
	}
	var untraced map[string]float64
	if m.traced {
		untraced = loadResult(base + "-trace0.json")
		started := map[string]time.Time{}
		for _, j := range m.all {
			if j.StartedAt != nil {
				started[j.ID] = *j.StartedAt
			}
		}
		if err := spans.write(base+"-spans.json", loadStart, started); err != nil {
			return err
		}
	}
	if err := saveResult(fmt.Sprintf("%s-trace%d.json", base, cfg.trace), ev.values); err != nil {
		return err
	}
	report(stdout, m, ev, untraced)
	line, err := json.Marshal(resultFor(m, ev))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// replaySolo starts a fresh server on a fresh copy of the history
// template, runs the solo loop's first soloDigestJobs jobs on it and
// returns their digest.
func replaySolo(ctx context.Context, bin, template, runDir string) (string, error) {
	dir := filepath.Join(runDir, "data-replay")
	if err := copyDir(template, dir); err != nil {
		return "", err
	}
	s, err := startServer(bin, dir, filepath.Join(runDir, "tuneserve-replay.log"))
	if err != nil {
		return "", err
	}
	defer s.stop()
	if _, err := s.waitHealthy(ctx, time.Now()); err != nil {
		return "", err
	}
	r := &runner{c: newClient(s.base, nil)}
	defer r.c.close()
	if err := r.solo(ctx, soloDigestJobs); err != nil {
		return "", err
	}
	if _, err := r.attachJobs(ctx); err != nil {
		return "", err
	}
	r.c.close()
	if err := s.stop(); err != nil {
		return "", err
	}
	return soloDigest(r.jobs), nil
}
