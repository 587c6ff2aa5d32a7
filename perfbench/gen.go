package main

import (
	"fmt"
	"math/rand"
)

// The five workload types of the paper's evaluation and the three input
// sizes DS1/DS2/DS3 in GB.
var (
	workloadNames = []string{"wordcount", "sort", "pagerank", "bayes", "kmeans"}
	sizesGB       = []float64{2, 8, 32}
)

// tenants is the tenant count of backfill.
const tenants = 16

// request is one tuning submission as the API takes it.
type request struct {
	Tenant    string  `json:"tenant"`
	Workload  string  `json:"workload"`
	InputGB   float64 `json:"inputGB"`
	Surrogate string  `json:"surrogate,omitempty"`
	Pruning   bool    `json:"pruning,omitempty"`
}

// soloRequests returns the solo tenant's first n requests: one tenant
// cycling the five workload types at DS2 (8 GB) with the default
// surrogate. They are the same for every seed; the seed varies the
// history they are tuned against.
func soloRequests(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = request{Tenant: "solo", Workload: workloadNames[i%len(workloadNames)], InputGB: sizesGB[1]}
	}
	return out
}

// soloJobCount is the solo loop's fixed job count for a load window of
// the given seconds: ten jobs per second of window, rounded down to a
// multiple of the five workload types so each runs equally often (300 at
// 30 s, about 45 s of load on a 2-vCPU machine). The count does not
// depend on how fast the program is, so two commits run the same jobs and
// grow the same history. It is large enough that a host stall of a few
// seconds holds up too few jobs to move the p90.
func soloJobCount(seconds int) int {
	n := 10 * seconds
	n -= n % len(workloadNames)
	if n < soloDigestJobs {
		n = soloDigestJobs
	}
	return n
}

// The tenants' own job sequences are fixed and the seed only interleaves
// them. tuneserve derives a session's randomness from (tenant, workload,
// the tenant's submission count for that workload), so with each
// tenant's order fixed every seed runs the same tuning sessions — common
// random numbers — and the seeds differ in what the program under test
// should be sensitive to: arrival order, queueing, and the history each
// session warm-starts from.

// interleave merges per-tenant sequences in a uniformly random order
// that keeps each tenant's own order.
func interleave(rng *rand.Rand, seqs [][]request) []request {
	left := 0
	for _, s := range seqs {
		left += len(s)
	}
	out := make([]request, 0, left)
	next := make([]int, len(seqs))
	for ; left > 0; left-- {
		k := rng.Intn(left)
		for t, s := range seqs {
			if rest := len(s) - next[t]; k >= rest {
				k -= rest
				continue
			}
			out = append(out, s[next[t]])
			next[t]++
			break
		}
	}
	return out
}

// modelMix is the surrogate and pruning choice of job i of a mixed
// batch: per 20 jobs 14 use the default gp, 3 forest and 3 rffgp, and
// every 4th asks for pruning.
func modelMix(i int) (surrogate string, pruning bool) {
	switch m := i % 20; {
	case m >= 17:
		surrogate = "rffgp"
	case m >= 14:
		surrogate = "forest"
	}
	return surrogate, i%4 == 0
}

// backfillBatch returns the backfill batch: each of the 16 tenants
// submits perTenant jobs cycling through every (workload, size) pair,
// starting at a different pair per tenant, all due at once, with the
// modelMix surrogates and pruning. With perTenant 15 every tenant runs
// every workload at every size once: 240 jobs.
func backfillBatch(seed int64, perTenant int) []request {
	pairs := len(workloadNames) * len(sizesGB)
	seqs := make([][]request, tenants)
	for t := range seqs {
		for k := 0; k < perTenant; k++ {
			p := (t + k) % pairs
			r := request{Tenant: fmt.Sprintf("bf-%02d", t),
				Workload: workloadNames[p%len(workloadNames)], InputGB: sizesGB[p/len(workloadNames)]}
			r.Surrogate, r.Pruning = modelMix(t*perTenant + k)
			seqs[t] = append(seqs[t], r)
		}
	}
	return interleave(rand.New(rand.NewSource(seed)), seqs)
}

// readKinds are the operator's reads, issued in rotation.
var readKinds = []string{"query", "history", "explain"}

// queryMetrics are the telemetry series the operator's range queries
// cycle through, as a dashboard panel set would.
var queryMetrics = []string{"jobs_queue_depth", "core_pipeline_seconds:p90", "wal_fsync_seconds:p99", "http_requests_total"}
