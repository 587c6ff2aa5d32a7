package main

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail percentile resting on fewer samples is
// one or two unlucky jobs, not a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted:
// the smallest sample with at least p·n samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-quantile of n
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly above the nearest-rank p-quantile
// of n samples.
func beyond(n int, p float64) int { return n - 1 - rankIndex(n, p) }

// tailPercentiles are the candidates for the highest reported
// percentile, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.9, 0.5}

// highestPercentile returns the highest candidate percentile that has at
// least minBeyond samples beyond it among n samples, or 0 when even the
// median has not.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantiles returns the p50 and p90 of xs (NaN when xs is empty).
func quantiles(xs []float64) (p50, p90 float64) {
	s := sortedCopy(xs)
	return percentile(s, 0.5), percentile(s, 0.9)
}

// median is the nearest-rank median of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of the positive values of xs (NaN when
// there are none): the mean in log space, which a few outliers cannot
// dominate.
func geomean(xs []float64) float64 {
	s, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(s / float64(n))
}

// bucketQuantile estimates the q-quantile of a histogram from its
// cumulative bucket counts (counts[i] observations ≤ les[i]) and total
// observation count, the way Prometheus' histogram_quantile does:
// linear interpolation inside the bucket holding the rank, with the
// first bucket's lower edge at 0. A rank past the last finite bound
// reports that bound. The inputs are deltas between two scrapes, so the
// estimate covers exactly the observations made between them.
func bucketQuantile(les, counts []float64, total, q float64) float64 {
	if total <= 0 || len(les) == 0 || len(les) != len(counts) {
		return math.NaN()
	}
	rank := q * total
	lower, below := 0.0, 0.0
	for i, le := range les {
		if counts[i] >= rank && counts[i] > below {
			return lower + (le-lower)*(rank-below)/(counts[i]-below)
		}
		lower, below = le, counts[i]
	}
	return les[len(les)-1]
}

// openLoopTiming times one open-loop request. The latency runs from the
// time the request was due, not from when the generator got round to
// sending it, so a generator stall counts against the system the way a
// real client's wait would; lateness is how far behind schedule the send
// was.
func openLoopTiming(due, sent, done time.Time) (latency, lateness time.Duration) {
	return done.Sub(due), sent.Sub(due)
}

// outcome classifies one operation for the error accounting.
type outcome int

const (
	// opOK is a successful operation.
	opOK outcome = iota
	// opTuneFailed is a tuning session that ended without a usable
	// configuration ("no … configuration succeeded"): a tuning outcome
	// the service reports correctly, not an operational failure.
	opTuneFailed
	// opFailed is an operational failure: a transport error or timeout,
	// a non-2xx response (429s included), or a job that never reached a
	// terminal state.
	opFailed
)

// tuneFailedRE matches the error of a tuning session whose every trial
// of a stage failed, e.g. "core: no DISC configuration succeeded for
// t/sort".
var tuneFailedRE = regexp.MustCompile(`no \S+ configuration succeeded`)

// classify sorts a finished HTTP call into the error accounting. code and
// message are the API error envelope's fields, if any.
func classify(transportErr error, status int, code, message string) outcome {
	switch {
	case transportErr != nil:
		return opFailed
	case status >= 200 && status < 300:
		return opOK
	case status == 500 && code == "tuning_failed" && tuneFailedRE.MatchString(message):
		return opTuneFailed
	default:
		return opFailed
	}
}

// jobOutcome classifies a job by its final server-side state and error.
func jobOutcome(state, errMsg string) outcome {
	switch {
	case state == "done":
		return opOK
	case state == "failed" && tuneFailedRE.MatchString(errMsg):
		return opTuneFailed
	default:
		return opFailed
	}
}
