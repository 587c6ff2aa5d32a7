package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100, 10000}); math.Abs(got-100) > 1e-9 {
		t.Errorf("geomean = %v, want 100", got)
	}
	if got := geomean([]float64{0, 4, 1}); math.Abs(got-2) > 1e-12 {
		t.Errorf("geomean skipping 0 = %v, want 2", got)
	}
	if !math.IsNaN(geomean(nil)) {
		t.Error("geomean of nothing should be NaN")
	}
}

// The highest reported percentile must keep at least ten samples beyond
// it: p90 needs 100 samples, p99 needs 1000.
func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {20, 0.5}, {21, 0.5}, {99, 0.5}, {100, 0.9}, {120, 0.9},
		{999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := highestPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, 100*p, beyond(c.n, p))
		}
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
}

// Quantiles come from the bucket counts observed between two scrapes,
// interpolated linearly inside the bucket holding the rank.
func TestBucketQuantileFromDeltas(t *testing.T) {
	before := &registry{Families: []family{{Name: "h", Series: []series{{
		Count: 10, Sum: 5, Buckets: []bucket{{1, 10}, {2, 10}, {4, 10}, {8, 10}},
	}}}}}
	// Since the first scrape: 10 more observations in (1,2], 10 in (2,4].
	after := &registry{Families: []family{{Name: "h", Series: []series{{
		Count: 30, Sum: 65, Buckets: []bucket{{1, 10}, {2, 20}, {4, 30}, {8, 30}},
	}}}}}
	d := histDelta(before, after, "h", "", "")
	if d.count != 20 || d.sum != 60 {
		t.Fatalf("delta count/sum = %v/%v, want 20/60", d.count, d.sum)
	}
	if got := d.mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.25, 1.5}, // rank 5 of the 10 in (1,2]
		{0.5, 2},    // rank 10: the top of (1,2]
		{0.75, 3},   // rank 15: halfway through (2,4]
	} {
		if got := d.quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	// Observations past the last finite bound report that bound.
	if got := bucketQuantile([]float64{1, 2}, []float64{0, 1}, 4, 0.9); got != 2 {
		t.Errorf("overflow quantile = %v, want 2", got)
	}
	if !math.IsNaN(bucketQuantile([]float64{1}, []float64{0}, 0, 0.5)) {
		t.Error("quantile of an empty delta should be NaN")
	}
}

func TestRegistryLabelFilter(t *testing.T) {
	r := &registry{Families: []family{{Name: "core_phase_seconds", Labels: []string{"phase"}, Series: []series{
		{LabelValues: []string{"probe"}, Count: 2, Sum: 0.5, Buckets: []bucket{{1, 2}}},
		{LabelValues: []string{"baseline"}, Count: 3, Sum: 0.25, Buckets: []bucket{{1, 3}}},
	}}, {Name: "c", Series: []series{{Value: 4}, {Value: 5}}}}}
	if h := r.hist("core_phase_seconds", "phase", "probe"); h.count != 2 || h.sum != 0.5 {
		t.Errorf("probe series = %+v", h)
	}
	if h := r.hist("core_phase_seconds", "", ""); h.count != 5 || h.cum[0] != 5 {
		t.Errorf("merged series = %+v", h)
	}
	if v := r.value("c", "", ""); v != 9 {
		t.Errorf("counter sum = %v, want 9", v)
	}
	if v := r.value("missing", "", ""); v != 0 {
		t.Errorf("missing counter = %v, want 0", v)
	}
}

// Open-loop latency runs from the scheduled send time, so a request the
// generator sent late is charged the lateness too.
func TestOpenLoopTimingFromScheduledSend(t *testing.T) {
	due := time.Unix(100, 0)
	sent := due.Add(40 * time.Millisecond) // the generator stalled
	done := sent.Add(200 * time.Millisecond)
	lat, late := openLoopTiming(due, sent, done)
	if lat != 240*time.Millisecond {
		t.Errorf("latency = %v, want 240ms (from the due time)", lat)
	}
	if late != 40*time.Millisecond {
		t.Errorf("lateness = %v, want 40ms", late)
	}
	if lat, late := openLoopTiming(due, due, done); lat != 240*time.Millisecond || late != 0 {
		t.Errorf("on-time send: latency %v lateness %v", lat, late)
	}
}

// Tuning failures are tuning outcomes; everything else that is not a
// success counts against error_rate.
func TestClassifyErrorsVersusTuningFailures(t *testing.T) {
	for _, c := range []struct {
		name          string
		err           error
		status        int
		code, message string
		want          outcome
	}{
		{"ok", nil, 200, "", "", opOK},
		{"accepted", nil, 202, "", "", opOK},
		{"tune failed", nil, 500, "tuning_failed", "core: no DISC configuration succeeded for t/sort", opTuneFailed},
		{"cloud stage failed", nil, 500, "tuning_failed", "core: no cloud configuration succeeded for t/sort", opTuneFailed},
		{"other job failure", nil, 500, "tuning_failed", "context canceled", opFailed},
		{"internal", nil, 500, "internal", "boom", opFailed},
		{"queue full", nil, 429, "queue_full", "jobs: queue full", opFailed},
		{"backpressure", nil, 429, "storage_backpressure", "", opFailed},
		{"bad request", nil, 400, "invalid_argument", "", opFailed},
		{"transport", errors.New("connection refused"), 0, "", "", opFailed},
	} {
		if got := classify(c.err, c.status, c.code, c.message); got != c.want {
			t.Errorf("%s: classify = %v, want %v", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		state, err string
		want       outcome
	}{
		{"done", "", opOK},
		{"failed", "core: no DISC configuration succeeded for a/b", opTuneFailed},
		{"failed", "storage: write failed", opFailed},
		{"running", "", opFailed}, // never reached a terminal state
		{"queued", "", opFailed},
	} {
		if got := jobOutcome(c.state, c.err); got != c.want {
			t.Errorf("jobOutcome(%q, %q) = %v, want %v", c.state, c.err, got, c.want)
		}
	}
}

func TestMaxQueueDepthFromTimestamps(t *testing.T) {
	at := func(ms int) *time.Time { t := time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond); return &t }
	jobs := []serverJob{
		{SubmittedAt: *at(0), StartedAt: at(0)},  // starts at once
		{SubmittedAt: *at(1), StartedAt: at(10)}, // queued 1..10
		{SubmittedAt: *at(2), StartedAt: at(12)}, // queued 2..12
		{SubmittedAt: *at(3)},                    // never started
		{SubmittedAt: *at(11), StartedAt: at(11)},
	}
	if got := maxQueueDepth(jobs); got != 3 {
		t.Errorf("maxQueueDepth = %d, want 3", got)
	}
}

// solo's work is fixed by the window alone and runs every workload type
// equally often.
func TestSoloJobCount(t *testing.T) {
	for _, c := range []struct{ seconds, want int }{{30, 300}, {10, 100}, {1, 10}} {
		if got := soloJobCount(c.seconds); got != c.want {
			t.Errorf("soloJobCount(%d) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

// The solo digest is the same for the same results and changes with any
// result field it covers.
func TestSoloDigest(t *testing.T) {
	mk := func() []*jobSample {
		var out []*jobSample
		for i, req := range soloRequests(soloDigestJobs + 2) {
			out = append(out, &jobSample{req: req, job: &serverJob{State: "done", Result: &tuneResult{
				Cluster: "c5.xlarge×4", Config: map[string]float64{"b": float64(i), "a": 1}, TunedRuntimeS: 100 + float64(i)}}})
		}
		return out
	}
	base := soloDigest(mk())
	if base == "" || soloDigest(mk()) != base {
		t.Fatalf("digest of equal results: %q vs %q", base, soloDigest(mk()))
	}
	if soloDigest(mk()[:soloDigestJobs-1]) != "" {
		t.Error("digest of too few jobs is not empty")
	}
	later := mk()
	later[soloDigestJobs].job.Result.TunedRuntimeS = 1
	if soloDigest(later) != base {
		t.Error("a job past the digested ones changed the digest")
	}
	for name, change := range map[string]func(*serverJob){
		"cluster": func(j *serverJob) { j.Result.Cluster = "m5.large×2" },
		"config":  func(j *serverJob) { j.Result.Config["a"] = 2 },
		"runtime": func(j *serverJob) { j.Result.TunedRuntimeS += 1e-9 },
		"state":   func(j *serverJob) { j.State, j.Result, j.Error = "failed", nil, "no DISC configuration succeeded" },
	} {
		js := mk()
		change(js[3].job)
		if soloDigest(js) == base {
			t.Errorf("changing the %s left the digest unchanged", name)
		}
	}
}

func TestBackfillBatchEveryPairPerTenant(t *testing.T) {
	a, c := backfillBatch(1, 15), backfillBatch(2, 15)
	if len(a) != 240 {
		t.Fatalf("len = %d, want 240", len(a))
	}
	type job struct {
		tenant, workload string
		gb               float64
	}
	pairs := map[job]int{}
	surrogates, pruning := map[string]int{}, 0
	for _, r := range a {
		pairs[job{r.Tenant, r.Workload, r.InputGB}]++
		surrogates[r.Surrogate]++
		if r.Pruning {
			pruning++
		}
	}
	if len(pairs) != 240 {
		t.Errorf("%d distinct (tenant, workload, size) jobs, want 240", len(pairs))
	}
	if surrogates[""] != 168 || surrogates["forest"] != 36 || surrogates["rffgp"] != 36 || pruning != 60 {
		t.Errorf("mix = %v, %d pruning; want 168 default, 36 forest, 36 rffgp, 60 pruning", surrogates, pruning)
	}
	var ta, tc []request
	for i := range a {
		if a[i].Tenant == "bf-03" {
			ta = append(ta, a[i])
		}
		if c[i].Tenant == "bf-03" {
			tc = append(tc, c[i])
		}
	}
	for i := range ta {
		if ta[i] != tc[i] {
			t.Fatalf("tenant bf-03's job %d differs across seeds", i)
		}
	}
	sameOrder := true
	for i := range a {
		sameOrder = sameOrder && a[i] == c[i]
	}
	if sameOrder {
		t.Error("different seeds gave the same interleaving")
	}
}
