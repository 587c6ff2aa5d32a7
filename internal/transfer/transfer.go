// Package transfer implements cross-workload knowledge transfer, the
// challenge the paper develops in §V-B: characterize workloads from
// provider-observable execution metrics, measure similarity, cluster
// similar workloads (AROMA-style, via k-medoids), warm-start a new
// workload's tuning from a similar workload's history — and guard
// against negative transfer from dissimilar sources.
package transfer

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"seamlesstune/internal/confspace"
	"seamlesstune/internal/history"
	"seamlesstune/internal/learn"
	"seamlesstune/internal/tuner"
)

// Fingerprint characterizes a workload purely from observed execution
// metrics — no knowledge of the program, exactly the provider's vantage
// point. All components are scale-normalized so fingerprints compare
// across input sizes.
type Fingerprint struct {
	// ShufflePerInput is shuffle bytes moved per input byte.
	ShufflePerInput float64
	// SpillPerInput is spill bytes per input byte (memory pressure).
	SpillPerInput float64
	// GCFrac is GC seconds per runtime second.
	GCFrac float64
	// SecondsPerGB is runtime per input GB (compute intensity).
	SecondsPerGB float64
	// StageDepth is the number of stages (iterativeness proxy).
	StageDepth float64
	// FailRate is the fraction of failed executions.
	FailRate float64
}

// ErrNoRecords is returned when a fingerprint is requested for an empty
// history.
var ErrNoRecords = errors.New("transfer: no records to fingerprint")

// FingerprintOf aggregates a workload's execution records into a
// fingerprint, averaging over successful runs.
func FingerprintOf(recs []history.Record) (Fingerprint, error) {
	if len(recs) == 0 {
		return Fingerprint{}, ErrNoRecords
	}
	var fp Fingerprint
	var ok int
	for _, r := range recs {
		if r.Failed {
			continue
		}
		ok++
		in := float64(r.InputBytes)
		if in <= 0 {
			in = 1
		}
		fp.ShufflePerInput += float64(r.Metrics.ShuffleReadBytes+r.Metrics.ShuffleWriteBytes) / in
		fp.SpillPerInput += float64(r.Metrics.SpillBytes) / in
		if r.RuntimeS > 0 {
			fp.GCFrac += r.Metrics.GCSeconds / r.RuntimeS
		}
		fp.SecondsPerGB += r.RuntimeS / (in / (1 << 30))
		fp.StageDepth += float64(r.Metrics.Stages)
	}
	if ok == 0 {
		return Fingerprint{}, ErrNoRecords
	}
	n := float64(ok)
	fp.ShufflePerInput /= n
	fp.SpillPerInput /= n
	fp.GCFrac /= n
	fp.SecondsPerGB /= n
	fp.StageDepth /= n
	fp.FailRate = 1 - n/float64(len(recs))
	return fp, nil
}

// WellConfigured filters records to the successful runs at or below the
// median runtime. Tuning histories are dominated by deliberately bad
// configurations (spilling, crashing); a workload's profile should be
// read from its reasonably-configured executions, or two histories of the
// same workload under different tuners would look dissimilar.
func WellConfigured(recs []history.Record) []history.Record {
	ok := make([]history.Record, 0, len(recs))
	for _, r := range recs {
		if !r.Failed {
			ok = append(ok, r)
		}
	}
	if len(ok) <= 2 {
		return ok
	}
	times := make([]float64, len(ok))
	for i, r := range ok {
		times[i] = r.RuntimeS
	}
	sort.Float64s(times)
	median := times[len(times)/2]
	out := make([]history.Record, 0, len(ok))
	for _, r := range ok {
		if r.RuntimeS <= median {
			out = append(out, r)
		}
	}
	return out
}

// Vector encodes the fingerprint for distance computations, compressing
// heavy-tailed components with log1p.
func (f Fingerprint) Vector() []float64 {
	return []float64{
		math.Log1p(f.ShufflePerInput * 4),
		// Spill depends on the configuration as much as on the workload;
		// weigh it lightly so two histories of the same workload under
		// different configurations still match.
		math.Log1p(f.SpillPerInput),
		f.GCFrac * 5,
		math.Log1p(f.SecondsPerGB) / 2,
		math.Log1p(f.StageDepth) / 2,
		f.FailRate,
	}
}

// Similarity maps two fingerprints to (0, 1]: 1 means identical profiles.
func Similarity(a, b Fingerprint) float64 {
	return math.Exp(-learn.Euclidean(a.Vector(), b.Vector()))
}

// DefaultSimilarityThreshold is the gate below which transfer is refused
// (negative-transfer guard). Calibrated so that the suite's map-heavy and
// iterative workloads land on opposite sides.
const DefaultSimilarityThreshold = 0.55

// Cluster groups workload fingerprints with k-medoids (AROMA's
// clustering). Keys orders the result deterministically.
type Cluster struct {
	Keys       []history.WorkloadKey
	Assignment map[history.WorkloadKey]int
	Medoids    []history.WorkloadKey
}

// ClusterWorkloads clusters the given fingerprints into k groups.
func ClusterWorkloads(fps map[history.WorkloadKey]Fingerprint, k int, rng *rand.Rand) (Cluster, error) {
	if len(fps) == 0 {
		return Cluster{}, ErrNoRecords
	}
	keys := make([]history.WorkloadKey, 0, len(fps))
	for key := range fps {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	points := make([][]float64, len(keys))
	for i, key := range keys {
		points[i] = fps[key].Vector()
	}
	res, err := learn.KMedoids(points, k, rng, 0)
	if err != nil {
		return Cluster{}, err
	}
	c := Cluster{Keys: keys, Assignment: make(map[history.WorkloadKey]int, len(keys))}
	for i, key := range keys {
		c.Assignment[key] = res.Assignment[i]
	}
	for _, m := range res.Medoids {
		c.Medoids = append(c.Medoids, keys[m])
	}
	return c, nil
}

// SourceSelection is the outcome of looking for a transfer source.
type SourceSelection struct {
	Source     history.WorkloadKey
	Similarity float64
	// Accepted is false when the best candidate fell below the threshold
	// (transferring anyway would risk negative transfer).
	Accepted bool
}

// SelectSource picks the most similar source workload for target among
// candidates, applying the negative-transfer threshold (0 uses the
// default).
func SelectSource(target Fingerprint, candidates map[history.WorkloadKey]Fingerprint, threshold float64) SourceSelection {
	if threshold <= 0 {
		threshold = DefaultSimilarityThreshold
	}
	keys := make([]history.WorkloadKey, 0, len(candidates))
	for key := range candidates {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	best := SourceSelection{Similarity: -1}
	for _, key := range keys {
		if s := Similarity(target, candidates[key]); s > best.Similarity {
			best = SourceSelection{Source: key, Similarity: s}
		}
	}
	best.Accepted = best.Similarity >= threshold
	return best
}

// WarmStartTrials converts a source workload's history into trials that
// seed a tuner's model (§V-B's "pre-trained template"): the fastest
// maxN successful records, re-expressed as penalty-free observations.
func WarmStartTrials(recs []history.Record, space *confspace.Space, maxN int) []tuner.Trial {
	if maxN <= 0 {
		maxN = 20
	}
	var ok []history.Record
	for _, r := range recs {
		if !r.Failed && r.Config != nil {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].RuntimeS < ok[j].RuntimeS })
	if len(ok) > maxN {
		ok = ok[:maxN]
	}
	out := make([]tuner.Trial, 0, len(ok))
	for i, r := range ok {
		cfg := space.Clamp(r.Config)
		out = append(out, tuner.Trial{
			Index:       i,
			Config:      cfg,
			Measurement: tuner.Measurement{Runtime: r.RuntimeS, Cost: r.CostUSD},
			Objective:   r.RuntimeS,
		})
	}
	return out
}
