package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better, what string
}

// endToEnd are the metrics a user of the service sees, reported by an
// untraced run (--trace 0). BENCHMARK.json lists the same set.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "process start → first /healthz 200 on the seeded data dir (median of the run's starts)"},
	{"job_p50_ms", "ms", "lower", "submit→done per job, median"},
	{"job_p90_ms", "ms", "lower", "submit→done per job, p90"},
	{"jobs_per_s", "1/s", "higher", "terminal jobs ÷ wall time from first send to last finish"},
	{"read_p50_ms", "ms", "lower", "operator read latency after the load, median"},
	{"success_rate", "ratio", "higher", "1 − error_rate (operational failures ÷ operations attempted)"},
	{"cpu_ms_per_job", "ms", "lower", "tuneserve user+sys CPU over the load ÷ terminal jobs"},
	{"peak_rss_mb", "MiB", "lower", "tuneserve VmHWM at run end"},
	{"improvement_pct", "%", "higher", "mean improvementPct over done jobs"},
	{"tuning_cost_usd", "USD", "lower", "geometric mean of tuningCostUSD over done jobs"},
}

// perLayer are the single-layer metrics, reported by a traced run
// (--trace 1). A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"wal.fsyncs_per_job", "count", "lower", "registry wal_fsyncs_total delta ÷ jobs"},
	{"wal.fsync_ms.p50", "ms", "lower", "wal_fsync_seconds bucket-delta median"},
	{"wal.fsync_ms.p90", "ms", "lower", "wal_fsync_seconds bucket-delta p90"},
	{"wal.batch_records_mean", "count", "higher", "records per group commit (wal_batch_records delta mean)"},
	{"wal.bytes_per_job", "B", "lower", "WAL disk growth over the load ÷ jobs"},
	{"storage.append_wait_us.p50", "us", "lower", "probe: sync AppendRecord wait with async events interleaved, median"},
	{"storage.append_wait_us.p90", "us", "lower", "probe: sync AppendRecord wait, p90"},
	{"storage.events_dropped", "count", "lower", "storage_events_dropped_total delta"},
	{"storage.recovery_s", "s", "lower", "WAL replay time of the measured server's start"},
	{"tuner.acq_ms_per_job", "ms", "lower", "tuner_acq_seconds sum delta ÷ jobs"},
	{"gp.fit_ms_per_job", "ms", "lower", "gp_fit_seconds sum delta ÷ jobs"},
	{"gp.fit_points_mean", "count", "lower", "training points per GP fit"},
	{"gp.predict_ms_per_job", "ms", "lower", "gp_predict_seconds sum delta ÷ jobs"},
	{"tuner.trial_self_ms_per_job", "ms", "lower", "trial span self time minus acquisition (traced)"},
	{"jobs.run_ms.gp.p50", "ms", "lower", "start→finish of gp jobs, median"},
	{"jobs.run_ms.forest.p50", "ms", "lower", "start→finish of forest jobs, median"},
	{"jobs.run_ms.rffgp.p50", "ms", "lower", "start→finish of rffgp jobs, median"},
	{"sensitivity.active_dims_mean", "count", "lower", "final active dimensions of pruned jobs"},
	{"spark.runs_per_job", "count", "lower", "spark_runs_total delta ÷ jobs"},
	{"spark.run_ms_per_job", "ms", "lower", "spark-run span self time per job (traced)"},
	{"simcache.hit_ratio", "ratio", "higher", "simcache hits ÷ lookups over the load"},
	{"jobs.wait_ms.p50", "ms", "lower", "submitted→started, median"},
	{"jobs.wait_ms.p90", "ms", "lower", "submitted→started, p90"},
	{"jobs.run_ms.p50", "ms", "lower", "started→finished, median"},
	{"jobs.run_ms.p90", "ms", "lower", "started→finished, p90"},
	{"jobs.queue_depth_max", "count", "lower", "most jobs queued at once, from the job timestamps"},
	{"core.phase_ms.cloud", "ms", "lower", "tune-cloud phase per job"},
	{"core.phase_ms.disc", "ms", "lower", "tune-disc phase per job, its probe excluded"},
	{"core.phase_ms.probe", "ms", "lower", "probe phase per job"},
	{"core.phase_ms.baseline", "ms", "lower", "baseline phase per job"},
	{"core.executions_per_job", "count", "lower", "core_executions_total delta ÷ jobs"},
	{"core.warm_start_frac", "ratio", "higher", "done jobs whose stage 2 was warm-started"},
	{"core.tune_failed_frac", "ratio", "lower", "jobs ending \"no … configuration succeeded\""},
	{"core.unattributed_ms", "ms", "lower", "pipeline time no child span covers, per job (traced)"},
	{"core.exec_phase_ms_per_job", "ms", "lower", "probe+baseline self time per job (traced)"},
	{"jobs.dispatch_ms_per_job", "ms", "lower", "run time outside the pipeline span per job (traced)"},
	{"tuneserve.http_ms_per_job", "ms", "lower", "job wall time outside the server's job lifetime (traced)"},
	{"trace.jobs_attributed", "count", "higher", "done jobs with a complete server trace"},
	{"history.records_end", "count", "higher", "records in the run-end history"},
	{"history.query_us.p50", "us", "lower", "probe: Store.Query of one workload key over the run-end store"},
	{"tuneserve.submit_ms.p50", "ms", "lower", "client send → server submittedAt, median"},
	{"tuneserve.submit_ms.p90", "ms", "lower", "client send → server submittedAt, p90"},
	{"read_p90_ms", "ms", "lower", "operator read latency after the load, p90"},
	{"tuneserve.read_ms.query.p50", "ms", "lower", "GET /v1/query after the load, median"},
	{"tuneserve.read_ms.history.p50", "ms", "lower", "GET /v1/history after the load, median"},
	{"tuneserve.read_ms.explain.p50", "ms", "lower", "GET /v1/jobs/{id}/explain after the load, median"},
	{"tuneserve.sse_lag_ms.p50", "ms", "lower", "terminal event arrival − finishedAt, median"},
	{"tuneserve.sse_lag_ms.p90", "ms", "lower", "terminal event arrival − finishedAt, p90"},
	{"events.published_per_job", "count", "lower", "events_published_total delta ÷ jobs"},
	{"events.dropped", "count", "lower", "events_dropped_total delta"},
	{"gen.lateness_ms.p90", "ms", "lower", "generator send lateness behind schedule, p90"},
	{"gen.cpu_ms_per_job", "ms", "lower", "the harness's own CPU over the load ÷ jobs"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is everything a run collected, ready for evaluation.
type measurement struct {
	workload       string
	seed           int64
	traced         bool
	setups         []float64 // seconds
	histRecords    int
	recoveredStart int // records the measured server replayed
	before, after  *registry
	diskBefore     float64
	diskAfter      float64
	recoveryS      float64
	serverCPU      time.Duration
	genCPU         time.Duration
	peakRSSKB      float64
	r              *runner
	all            []serverJob
	recordsEnd     int
	// replayDigest is solo's digest from a second server on the same
	// history; priorDigest the one an earlier run of the seed saved.
	replayDigest, priorDigest string
	appendWaits               []float64 // µs
	queryTimes                []float64 // µs
}

// evaluation is a measurement reduced to metrics and check verdicts.
type evaluation struct {
	values   map[string]float64
	checks   []string // failed checks; empty means correct
	notes    []string
	terminal int
	done     int
	digest   string
	fold     foldSummary
	jobLat   []float64
}

// foldSummary is the traced run's per-job self-time table: means over
// the attributed jobs, in ms. The parts sum to wall.
type foldSummary struct {
	jobs                                       int
	wall, http, queue, dispatch                float64
	spark, acq, trial, execPhase, unattributed float64
	other                                      float64
}

func (f foldSummary) sum() float64 {
	return f.http + f.queue + f.dispatch + f.spark + f.acq + f.trial + f.execPhase + f.unattributed + f.other
}

// trialsPerJob is the trial spans of a complete pipeline trace:
// tuneserve's default -cloud-budget 10 plus -disc-budget 25.
const trialsPerJob = 10 + 25

// soloDigestJobs is how many of the solo loop's first jobs the result
// digest covers; every run completes far more.
const soloDigestJobs = 10

func evaluate(m *measurement) evaluation {
	ev := evaluation{values: map[string]float64{}}
	v := ev.values
	r := m.r
	fail := func(format string, args ...any) { ev.checks = append(ev.checks, fmt.Sprintf(format, args...)) }

	// Per-job outcomes, latencies and output checks.
	var (
		first, last      time.Time
		improve, cost    []float64
		wait, run        []float64
		runBySurrogate   = map[string][]float64{}
		submitLat        []float64
		warm, tuneFailed int
		activeDims       []float64
		sseLag           []float64
	)
	for _, s := range r.jobs {
		if s.submit.outcome() == opFailed && s.job == nil {
			continue // refused; already counted as a failed operation
		}
		j := s.job
		if j == nil || (j.State != "done" && j.State != "failed") || j.FinishedAt == nil {
			r.fail(fmt.Sprintf("job %s (%s/%s) never reached a terminal state", s.id, s.req.Tenant, s.req.Workload))
			fail("job %q of %s/%s was lost", s.id, s.req.Tenant, s.req.Workload)
			continue
		}
		switch jobOutcome(j.State, j.Error) {
		case opTuneFailed:
			tuneFailed++
		case opFailed:
			r.fail(fmt.Sprintf("job %s failed: %s", j.ID, j.Error))
		}
		ev.terminal++
		var doneAt time.Time
		if r.closedLoop {
			doneAt = s.submit.end
		} else {
			doneAt = *j.FinishedAt
		}
		lat, _ := openLoopTiming(s.due, s.sent, doneAt)
		ev.jobLat = append(ev.jobLat, ms(lat))
		if first.IsZero() || s.due.Before(first) {
			first = s.due
		}
		if doneAt.After(last) {
			last = doneAt
		}
		submitLat = append(submitLat, ms(j.SubmittedAt.Sub(s.sent)))
		if j.StartedAt != nil && j.FinishedAt != nil {
			wait = append(wait, ms(j.StartedAt.Sub(j.SubmittedAt)))
			rt := ms(j.FinishedAt.Sub(*j.StartedAt))
			run = append(run, rt)
			runBySurrogate[j.Surrogate] = append(runBySurrogate[j.Surrogate], rt)
		}
		if r.tap != nil && j.FinishedAt != nil {
			if at, ok := r.tap.endedAt(j.ID); ok {
				sseLag = append(sseLag, ms(at.Sub(*j.FinishedAt)))
			}
		}
		if j.State != "done" {
			continue
		}
		ev.done++
		res := j.Result
		switch {
		case res == nil:
			fail("job %s: done without a result", j.ID)
			continue
		case res.Cluster == "":
			fail("job %s: empty cluster", j.ID)
		case !finite(res.TunedRuntimeS) || res.TunedRuntimeS <= 0:
			fail("job %s: tuned runtime %v", j.ID, res.TunedRuntimeS)
		case !finite(res.ImprovementPct):
			fail("job %s: improvementPct %v", j.ID, res.ImprovementPct)
		}
		if err := validConfig(res.Config); err != nil {
			fail("job %s: config outside the %d-knob space: %v", j.ID, tunedParams, err)
		}
		improve = append(improve, res.ImprovementPct)
		cost = append(cost, res.TuningCostUSD)
		if res.WarmStarted {
			warm++
		}
		if j.Pruning && res.ActiveDims > 0 {
			activeDims = append(activeDims, float64(res.ActiveDims))
		}
	}
	if ev.terminal == 0 {
		fail("no job reached a terminal state")
	}
	// Every record the server acknowledged must be in its data directory.
	appended := int(m.after.value("storage_records_total", "", ""))
	if m.recoveredStart != m.histRecords {
		fail("server replayed %d records of the %d-record template", m.recoveredStart, m.histRecords)
	}
	if m.recordsEnd < m.recoveredStart+appended {
		fail("run-end data dir holds %d records, want %d replayed + %d appended", m.recordsEnd, m.recoveredStart, appended)
	}
	if r.closedLoop {
		ev.digest = soloDigest(r.jobs)
		switch {
		case ev.digest == "":
			fail("solo completed fewer than %d jobs; no result digest", soloDigestJobs)
		case m.replayDigest != ev.digest:
			fail("solo result digest %s, but %q on a second server over the same history", ev.digest, m.replayDigest)
		case m.priorDigest != "" && m.priorDigest != ev.digest:
			fail("solo result digest %s, but %s in an earlier run of seed %d", ev.digest, m.priorDigest, m.seed)
		}
	}

	n := float64(ev.terminal)
	perJob := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}

	// End-to-end metrics.
	v["setup_s"] = median(m.setups)
	v["job_p50_ms"], v["job_p90_ms"] = quantiles(ev.jobLat)
	if wall := last.Sub(first).Seconds(); wall > 0 {
		v["jobs_per_s"] = n / wall
	}
	var reads []float64
	byKind := map[string][]float64{}
	for _, rd := range r.reads {
		reads = append(reads, rd.ms)
		byKind[rd.kind] = append(byKind[rd.kind], rd.ms)
	}
	v["read_p50_ms"], v["read_p90_ms"] = quantiles(reads)
	if r.attempted > 0 {
		v["success_rate"] = 1 - float64(r.failed)/float64(r.attempted)
	}
	v["cpu_ms_per_job"] = perJob(ms(m.serverCPU))
	v["peak_rss_mb"] = m.peakRSSKB / 1024
	v["improvement_pct"] = mean(improve)
	// Per-job spend spans three orders of magnitude (a few DS3 jobs on
	// large clusters cost more than a hundred small ones together), so
	// the arithmetic mean would follow those few jobs.
	v["tuning_cost_usd"] = geomean(cost)
	if len(ev.jobLat) > 0 && highestPercentile(len(ev.jobLat)) < 0.9 {
		ev.notes = append(ev.notes, fmt.Sprintf("job_p90_ms rests on fewer than %d samples beyond it (n=%d)", minBeyond, len(ev.jobLat)))
	}
	if len(reads) > 0 && highestPercentile(len(reads)) < 0.9 {
		ev.notes = append(ev.notes, fmt.Sprintf("read_p90_ms rests on fewer than %d samples beyond it (n=%d)", minBeyond, len(reads)))
	}

	// Per-layer metrics: registry deltas between the scrapes.
	b, a := m.before, m.after
	cd := func(name string) float64 { return counterDelta(b, a, name, "", "") }
	v["wal.fsyncs_per_job"] = perJob(cd("wal_fsyncs_total"))
	fs := histDelta(b, a, "wal_fsync_seconds", "", "")
	v["wal.fsync_ms.p50"], v["wal.fsync_ms.p90"] = 1e3*fs.quantile(0.5), 1e3*fs.quantile(0.9)
	v["wal.batch_records_mean"] = histDelta(b, a, "wal_batch_records", "", "").mean()
	v["wal.bytes_per_job"] = perJob(m.diskAfter - m.diskBefore)
	v["storage.append_wait_us.p50"], v["storage.append_wait_us.p90"] = quantiles(m.appendWaits)
	v["storage.events_dropped"] = cd("storage_events_dropped_total")
	v["storage.recovery_s"] = m.recoveryS
	v["tuner.acq_ms_per_job"] = perJob(1e3 * histDelta(b, a, "tuner_acq_seconds", "", "").sum)
	v["gp.fit_ms_per_job"] = perJob(1e3 * histDelta(b, a, "gp_fit_seconds", "", "").sum)
	v["gp.fit_points_mean"] = histDelta(b, a, "gp_fit_points", "", "").mean()
	v["gp.predict_ms_per_job"] = perJob(1e3 * histDelta(b, a, "gp_predict_seconds", "", "").sum)
	for _, sur := range []string{"gp", "forest", "rffgp"} {
		v["jobs.run_ms."+sur+".p50"] = median(runBySurrogate[sur])
	}
	v["sensitivity.active_dims_mean"] = mean(activeDims)
	v["spark.runs_per_job"] = perJob(cd("spark_runs_total"))
	hits, misses := cd("simcache_hits_total"), cd("simcache_misses_total")
	if hits+misses > 0 {
		v["simcache.hit_ratio"] = hits / (hits + misses)
	}
	v["jobs.wait_ms.p50"], v["jobs.wait_ms.p90"] = quantiles(wait)
	v["jobs.run_ms.p50"], v["jobs.run_ms.p90"] = quantiles(run)
	v["jobs.queue_depth_max"] = float64(maxQueueDepth(m.all))
	for phase, label := range map[string]string{"cloud": "tune-cloud", "disc": "tune-disc", "probe": "probe", "baseline": "baseline"} {
		v["core.phase_ms."+phase] = perJob(1e3 * histDelta(b, a, "core_phase_seconds", "phase", label).sum)
	}
	// The probe runs inside the tune-disc phase; report the two disjoint.
	v["core.phase_ms.disc"] -= v["core.phase_ms.probe"]
	v["core.executions_per_job"] = perJob(cd("core_executions_total"))
	if ev.done > 0 {
		v["core.warm_start_frac"] = float64(warm) / float64(ev.done)
	}
	v["core.tune_failed_frac"] = perJob(float64(tuneFailed))
	v["history.records_end"] = float64(m.recordsEnd)
	v["history.query_us.p50"] = median(m.queryTimes)
	v["tuneserve.submit_ms.p50"], v["tuneserve.submit_ms.p90"] = quantiles(submitLat)
	for _, k := range readKinds {
		v["tuneserve.read_ms."+k+".p50"] = median(byKind[k])
	}
	v["tuneserve.sse_lag_ms.p50"], v["tuneserve.sse_lag_ms.p90"] = quantiles(sseLag)
	v["events.published_per_job"] = perJob(cd("events_published_total"))
	v["events.dropped"] = cd("events_dropped_total")
	_, v["gen.lateness_ms.p90"] = quantiles(r.lateness)
	v["gen.cpu_ms_per_job"] = perJob(ms(m.genCPU))

	if r.spans != nil {
		ev.fold = foldRun(r)
		f := ev.fold
		v["tuner.trial_self_ms_per_job"] = f.trial
		v["spark.run_ms_per_job"] = f.spark
		v["core.unattributed_ms"] = f.unattributed + f.other
		v["core.exec_phase_ms_per_job"] = f.execPhase
		v["jobs.dispatch_ms_per_job"] = f.dispatch
		v["tuneserve.http_ms_per_job"] = f.http
		v["trace.jobs_attributed"] = float64(f.jobs)
		if f.jobs == 0 {
			fail("traced run attributed no job (no complete server trace)")
		}
	}
	for k, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[k] = 0 // the workload does not exercise this layer
		}
	}
	return ev
}

// foldRun builds the traced run's self-time table. Each attributed job's
// client-observed wall time splits into the time outside the server's
// job lifetime (HTTP ingress and the response or generator lateness),
// queue wait, dispatch (run time outside the pipeline span) and the
// pipeline's self times by layer; the parts sum to the wall time.
func foldRun(r *runner) foldSummary {
	var f foldSummary
	for _, s := range r.jobs {
		j := s.job
		if j == nil || j.State != "done" || j.StartedAt == nil || j.FinishedAt == nil {
			continue
		}
		spans, ok := r.spans.server[j.ID]
		if !ok {
			continue
		}
		jf, ok := foldJob(spans)
		if !ok || jf.Trials != trialsPerJob {
			continue // evicted from the server's trace ring before the fetch
		}
		doneAt := *j.FinishedAt
		if r.closedLoop {
			doneAt = s.submit.end
		}
		wall := ms(doneAt.Sub(s.due))
		life := ms(j.FinishedAt.Sub(j.SubmittedAt))
		runMS := ms(j.FinishedAt.Sub(*j.StartedAt))
		pipe := jf.Pipeline / 1e3
		f.jobs++
		f.wall += wall
		f.http += wall - life
		f.queue += ms(j.StartedAt.Sub(j.SubmittedAt))
		f.dispatch += runMS - pipe
		f.spark += jf.Spark / 1e3
		f.acq += jf.Acq / 1e3
		f.trial += jf.Trial / 1e3
		f.execPhase += jf.ExecPhase / 1e3
		f.unattributed += jf.Unattributed / 1e3
		f.other += jf.Other / 1e3
	}
	if f.jobs > 0 {
		k := float64(f.jobs)
		for _, p := range []*float64{&f.wall, &f.http, &f.queue, &f.dispatch, &f.spark, &f.acq, &f.trial, &f.execPhase, &f.unattributed, &f.other} {
			*p /= k
		}
	}
	return f
}

// maxQueueDepth is the most jobs submitted but not yet started at any
// instant, swept over the jobs' own timestamps.
func maxQueueDepth(jobs []serverJob) int {
	type edge struct {
		t time.Time
		d int
	}
	var es []edge
	for _, j := range jobs {
		es = append(es, edge{j.SubmittedAt, 1})
		if j.StartedAt != nil {
			es = append(es, edge{*j.StartedAt, -1})
		}
	}
	sort.Slice(es, func(i, k int) bool {
		if !es[i].t.Equal(es[k].t) {
			return es[i].t.Before(es[k].t)
		}
		return es[i].d < es[k].d // a start at the same instant leaves first
	})
	depth, peak := 0, 0
	for _, e := range es {
		depth += e.d
		if depth > peak {
			peak = depth
		}
	}
	return peak
}

// soloDigest hashes the first soloDigestJobs solo results (workload,
// cluster, canonical config, tuned runtime; or the failure) — identical
// across runs with the same seed, because a single tenant's FIFO
// pipeline is deterministic.
func soloDigest(jobs []*jobSample) string {
	if len(jobs) < soloDigestJobs {
		return ""
	}
	h := sha256.New()
	for _, s := range jobs[:soloDigestJobs] {
		j := s.job
		if j == nil {
			return ""
		}
		fmt.Fprintf(h, "%s|%s|", s.req.Workload, j.State)
		if j.Result == nil {
			fmt.Fprintf(h, "%s\n", j.Error)
			continue
		}
		keys := make([]string, 0, len(j.Result.Config))
		for k := range j.Result.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "%s|", j.Result.Cluster)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%v,", k, j.Result.Config[k])
		}
		fmt.Fprintf(h, "|%v\n", j.Result.TunedRuntimeS)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// resultFor builds the result line: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one.
func resultFor(m *measurement, ev evaluation) result {
	defs := endToEnd
	if m.traced {
		defs = perLayer
	}
	res := result{Correct: len(ev.checks) == 0, Attempted: m.r.attempted, Failed: m.r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: ev.values[d.name], Unit: d.unit}
	}
	return res
}

// report prints the human-readable summary.
func report(w io.Writer, m *measurement, ev evaluation, untraced map[string]float64) {
	r := m.r
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v: %d jobs terminal (%d done), %d reads, %d/%d operations failed, %d history records seeded\n",
		m.workload, m.seed, m.traced, ev.terminal, ev.done, len(r.reads), r.failed, r.attempted, m.histRecords)
	fmt.Fprintf(w, "end-to-end:\n")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %12.4f %-6s (%s is better) %s\n", d.name, ev.values[d.name], d.unit, d.better, d.what)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-18s %12.4f %-6s (lower is better) reported in the result line as success_rate\n", "error_rate", errRate, "ratio")
	fmt.Fprintf(w, "  job latency samples: %d; highest percentile with ≥%d samples beyond: p%g\n",
		len(ev.jobLat), minBeyond, 100*highestPercentile(len(ev.jobLat)))
	if len(r.reads) > 0 {
		fmt.Fprintf(w, "  read latency samples: %d; highest percentile with ≥%d samples beyond: p%g\n",
			len(r.reads), minBeyond, 100*highestPercentile(len(r.reads)))
	}
	if ev.digest != "" {
		prior := m.priorDigest
		if prior == "" {
			prior = "none saved"
		}
		fmt.Fprintf(w, "  solo result digest (first %d jobs): %s; second server: %s; earlier run of this seed: %s\n",
			soloDigestJobs, ev.digest, m.replayDigest, prior)
	}
	for _, n := range ev.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  failed operation: %s\n", f)
	}
	if m.traced {
		if untraced != nil {
			fmt.Fprintf(w, "tracing overhead (this traced run vs the untraced run of the same workload and seed):\n")
			for _, d := range endToEnd {
				if base, ok := untraced[d.name]; ok && base != 0 {
					fmt.Fprintf(w, "  %-18s %+8.1f%%\n", d.name, 100*(ev.values[d.name]/base-1))
				}
			}
		} else {
			fmt.Fprintf(w, "tracing overhead: run --trace 0 with the same workload and seed first to compare\n")
		}
		f := ev.fold
		fmt.Fprintf(w, "per-job self time, mean over %d attributed jobs (ms):\n", f.jobs)
		rows := []struct {
			name string
			v    float64
		}{
			{"tuneserve.http (ingress, lateness, response)", f.http},
			{"jobs.queue_wait", f.queue},
			{"jobs.dispatch", f.dispatch},
			{"spark.run", f.spark},
			{"tuner.acq", f.acq},
			{"tuner.trial_self (fit, WAL append, events)", f.trial},
			{"core.exec_phase (probe+baseline self)", f.execPhase},
			{"core.unattributed", f.unattributed + f.other},
		}
		for _, row := range rows {
			share := 0.0
			if f.wall > 0 {
				share = 100 * row.v / f.wall
			}
			fmt.Fprintf(w, "  %-46s %10.2f  %5.1f%%\n", row.name, row.v, share)
		}
		fmt.Fprintf(w, "  %-46s %10.2f  (job wall %.2f)\n", "sum", f.sum(), f.wall)
		fmt.Fprintf(w, "  of which gp.fit (registry) %.2f ms/job inside tuner.trial_self\n", ev.values["gp.fit_ms_per_job"])
		fmt.Fprintf(w, "per-layer:\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %12.4f %s\n", d.name, ev.values[d.name], d.unit)
		}
	}
	if len(ev.checks) == 0 {
		fmt.Fprintf(w, "checks: ok\n")
	} else {
		fmt.Fprintf(w, "checks: FAILED\n  %s\n", strings.Join(ev.checks, "\n  "))
	}
}

// saveResult keeps a run's metric values for later comparison.
func saveResult(path string, values map[string]float64) error {
	b, err := json.MarshalIndent(values, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// loadResult reads values saveResult wrote, nil if there are none.
func loadResult(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var v map[string]float64
	if json.Unmarshal(b, &v) != nil {
		return nil
	}
	return v
}
