package gp

import (
	"fmt"
	"math"
	"time"

	"seamlesstune/internal/linalg"
	"seamlesstune/internal/stat"
)

// RFF approximates a stationary-kernel GP with random Fourier features
// (Rahimi & Recht): the kernel is replaced by the inner product of D
// random cosine features, turning the O(n³) exact fit into Bayesian
// linear regression over D weights — O(n·D²) to fit, O(D²) per posterior
// query, independent of the history size n. Hyperparameters (length
// scale, noise) are selected by grid-search marginal likelihood over the
// same grid as HyperFitter, evaluated through the Woodbury identity so
// the grid sweep also never touches an n×n system.
//
// The feature frequencies are drawn once, at the first fit, from the
// kernel's spectral density (a multivariate t with 5 degrees of freedom
// for Matérn-5/2, a Gaussian for SE) using the construction seed — two
// RFFs with the same seed and data produce bit-identical posteriors.
// Successive fits that only append observations update the running
// feature Gram incrementally, so a tuning loop pays O(Δn·D²) per refit.
// Not safe for concurrent use.
type RFF struct {
	// Features is the number of random features D (default 128). Larger D
	// tracks the exact GP more closely at quadratic cost in D.
	Features int
	// LengthScales and Noises override the hyperparameter grids (defaults:
	// the shared hyperLengthScales / hyperNoises grids). Override before
	// the first Fit; equivalence tests pin both to a single value.
	LengthScales []float64
	Noises       []float64

	kind KernelKind
	seed int64

	dim int
	w0  [][]float64 // D base frequency rows at unit length scale
	ph  []float64   // D phases in [0, 2π)

	// Canonical copies of the training sample, for appended-prefix
	// detection and running target moments.
	xs          [][]float64
	ys          []float64
	sumY, sumYY float64

	// Per-length-scale sufficient statistics, accumulated row by row:
	// the feature Gram ΦᵀΦ (upper triangle), Φᵀy (raw targets) and Φᵀ1.
	stats []*rffStats

	// Selected model (grid winner of the last fit).
	li          int
	noise       float64
	yMean, yStd float64
	mu          []float64
	chol        *linalg.Cholesky
	lml         float64

	// Scratch buffers reused across rows and queries.
	dotBuf []float64
	phiBuf []float64
}

type rffStats struct {
	g  *linalg.Matrix // ΦᵀΦ, upper triangle maintained
	fy []float64      // Φᵀy in raw target units
	f1 []float64      // Φᵀ1
}

// NewRFF returns an empty random-feature approximation of the kernel
// family, with features drawn deterministically from seed at first fit.
func NewRFF(kind KernelKind, seed int64) *RFF {
	return &RFF{kind: kind, seed: seed}
}

func (r *RFF) features() int {
	if r.Features > 0 {
		return r.Features
	}
	return 128
}

func (r *RFF) lengthScales() []float64 {
	if len(r.LengthScales) > 0 {
		return r.LengthScales
	}
	return hyperLengthScales
}

func (r *RFF) noises() []float64 {
	if len(r.Noises) > 0 {
		return r.Noises
	}
	return hyperNoises
}

// drawFeatures samples the base frequencies and phases from the kernel's
// spectral density at unit length scale. For Matérn-5/2 the spectral
// measure is a multivariate t with 5 degrees of freedom, sampled as
// z·sqrt(ν/q) with z ~ N(0, I) and q ~ χ²_ν; for SE it is N(0, I).
func (r *RFF) drawFeatures(dim int) {
	d := r.features()
	rng := stat.NewRNG(r.seed)
	r.dim = dim
	r.w0 = make([][]float64, d)
	r.ph = make([]float64, d)
	for j := 0; j < d; j++ {
		w := make([]float64, dim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		if r.kind == KindMatern52 {
			q := 0.0
			for k := 0; k < 5; k++ {
				g := rng.NormFloat64()
				q += g * g
			}
			if q < 1e-12 {
				q = 1e-12
			}
			s := math.Sqrt(5 / q)
			for i := range w {
				w[i] *= s
			}
		}
		r.w0[j] = w
		r.ph[j] = 2 * math.Pi * rng.Float64()
	}
	r.dotBuf = make([]float64, d)
	r.phiBuf = make([]float64, d)
}

// Reset drops the accumulated sample, statistics, and selected model,
// forcing the next Fit to rebuild from scratch. The drawn features
// survive — they depend only on seed and dimension.
func (r *RFF) Reset() { r.reset() }

// reset drops the accumulated sample and statistics (the drawn features
// survive — they depend only on seed and dimension).
func (r *RFF) reset() {
	r.xs, r.ys = nil, nil
	r.sumY, r.sumYY = 0, 0
	r.stats = nil
	r.chol, r.mu = nil, nil
}

// sync reconciles the canonical sample with (xs, ys): appended rows are
// kept for absorption, anything else resets the accumulated state.
func (r *RFF) sync(xs [][]float64, ys []float64) {
	appended := len(xs) >= len(r.xs)
	if appended {
		for i, prev := range r.xs {
			if r.ys[i] != ys[i] || !floatsEqual(prev, xs[i]) {
				appended = false
				break
			}
		}
	}
	if !appended {
		r.reset()
	}
}

// fit trains the approximation on (xs, ys), reusing accumulated per-row
// statistics when the sample only grew by appended rows.
func (r *RFF) fit(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return fmt.Errorf("%w: %d xs, %d ys", ErrNoData, len(xs), len(ys))
	}
	dim := len(xs[0])
	if r.w0 == nil || r.dim != dim {
		r.reset()
		r.drawFeatures(dim)
	}
	r.sync(xs, ys)
	if r.stats == nil {
		d := r.features()
		ls := r.lengthScales()
		r.stats = make([]*rffStats, len(ls))
		for i := range r.stats {
			r.stats[i] = &rffStats{
				g:  linalg.NewMatrix(d, d),
				fy: make([]float64, d),
				f1: make([]float64, d),
			}
		}
	}
	old := len(r.xs)
	if len(xs) == old && r.chol != nil {
		return nil // unchanged sample: the selected model is still current
	}
	for i := old; i < len(xs); i++ {
		r.absorbRow(xs[i], ys[i])
	}
	return r.selectModel()
}

// absorbRow folds one observation into every length scale's statistics.
// Full fits and incremental extensions share this single code path, so
// fitting n rows at once is bit-identical to fitting them one at a time.
func (r *RFF) absorbRow(x []float64, y float64) {
	own := append([]float64(nil), x...)
	r.xs = append(r.xs, own)
	r.ys = append(r.ys, y)
	r.sumY += y
	r.sumYY += y * y
	d := r.features()
	scale := math.Sqrt(2 / float64(d))
	dots := r.dotBuf
	for j, w := range r.w0 {
		dots[j] = linalg.Dot(w, own)
	}
	phi := r.phiBuf
	for li, l := range r.lengthScales() {
		st := r.stats[li]
		for j := range phi {
			phi[j] = scale * math.Cos(dots[j]/l+r.ph[j])
		}
		for i, pi := range phi {
			row := st.g.RowView(i)
			for j := i; j < d; j++ {
				row[j] += pi * phi[j]
			}
			st.fy[i] += pi * y
			st.f1[i] += pi
		}
	}
}

// selectModel sweeps the hyperparameter grid over the accumulated
// statistics and keeps the marginal-likelihood winner. The likelihood of
// the n observations is evaluated through the Woodbury identity, so each
// grid cell costs one D×D Cholesky — never an n×n system.
func (r *RFF) selectModel() error {
	n := len(r.xs)
	d := r.features()
	yMean := r.sumY / float64(n)
	variance := r.sumYY/float64(n) - yMean*yMean
	if variance < 0 {
		variance = 0
	}
	yStd := math.Sqrt(variance)
	if yStd <= 1e-12 {
		yStd = 1
	}
	// Standardized-target sufficient statistics shared across the grid.
	ytyN := (r.sumYY - 2*yMean*r.sumY + float64(n)*yMean*yMean) / (yStd * yStd)

	bestLML := math.Inf(-1)
	found := false
	bn := make([]float64, d)
	for li := range r.lengthScales() {
		st := r.stats[li]
		for i := 0; i < d; i++ {
			bn[i] = (st.fy[i] - yMean*st.f1[i]) / yStd
		}
		for _, nz := range r.noises() {
			a := linalg.NewMatrix(d, d)
			for i := 0; i < d; i++ {
				src := st.g.RowView(i)
				row := a.RowView(i)
				for j := i; j < d; j++ {
					row[j] = src[j]
					a.RowView(j)[i] = src[j]
				}
				row[i] += nz * nz
			}
			chol, err := linalg.NewCholesky(a)
			if err != nil {
				continue
			}
			mu, err := chol.SolveVec(bn)
			if err != nil {
				continue
			}
			resid := ytyN - linalg.Dot(bn, mu)
			if resid < 0 {
				resid = 0
			}
			// log|C| = log|A| + 2(n−D)·log σn with C = ΦΦᵀ + σn²Iₙ.
			lml := -0.5 * (resid/(nz*nz) + chol.LogDet() +
				2*float64(n-d)*math.Log(nz) + float64(n)*math.Log(2*math.Pi))
			if lml > bestLML {
				bestLML = lml
				r.li = li
				r.noise = nz
				r.mu = mu
				r.chol = chol
				r.lml = lml
				found = true
			}
		}
	}
	r.yMean, r.yStd = yMean, yStd
	if !found {
		r.chol, r.mu = nil, nil
		return fmt.Errorf("gp: no rff hyperparameter combination produced a valid fit")
	}
	return nil
}

// Fitted reports whether a fit has succeeded.
func (r *RFF) Fitted() bool { return r.chol != nil }

// N returns the number of absorbed training points.
func (r *RFF) N() int { return len(r.xs) }

// LogMarginalLikelihood returns the approximate LML of the selected model
// (0 if unfitted).
func (r *RFF) LogMarginalLikelihood() float64 { return r.lml }

// featurize writes the selected-length-scale feature vector of x into dst.
func (r *RFF) featurize(x []float64, dst []float64) {
	l := r.lengthScales()[r.li]
	scale := math.Sqrt(2 / float64(r.features()))
	for j, w := range r.w0 {
		dst[j] = scale * math.Cos(linalg.Dot(w, x)/l+r.ph[j])
	}
}

// predict returns the posterior mean and standard deviation at x in the
// original target units. An unfitted RFF predicts (0, +Inf).
func (r *RFF) predict(x []float64) (mean, std float64) {
	if !r.Fitted() {
		return 0, math.Inf(1)
	}
	phi := r.phiBuf
	r.featurize(x, phi)
	mu := linalg.Dot(phi, r.mu)
	v, err := r.chol.SolveForward(phi)
	if err != nil {
		return r.yMean, r.yStd
	}
	nv := r.noise * r.noise
	variance := nv*linalg.Dot(v, v) + nv
	return mu*r.yStd + r.yMean, math.Sqrt(variance) * r.yStd
}

// predictBatch returns the posterior at a pool of query points: one D×m
// feature block and one batched triangular solve, bit-identical to
// calling predict per point.
func (r *RFF) predictBatch(xs [][]float64) (means, stds []float64) {
	m := len(xs)
	means = make([]float64, m)
	stds = make([]float64, m)
	if !r.Fitted() {
		for j := range stds {
			stds[j] = math.Inf(1)
		}
		return means, stds
	}
	d := r.features()
	phis := linalg.NewMatrix(d, m)
	col := r.phiBuf
	for j, x := range xs {
		r.featurize(x, col)
		for i, p := range col {
			phis.RowView(i)[j] = p
		}
	}
	for i, w := range r.mu {
		row := phis.RowView(i)
		for j, p := range row {
			means[j] += p * w
		}
	}
	// The half-solve overwrites phis, which the mean no longer needs.
	if err := r.chol.SolveForwardBatch(phis); err != nil {
		for j := range means {
			means[j], stds[j] = r.yMean, r.yStd
		}
		return means, stds
	}
	ss := make([]float64, m)
	for i := 0; i < d; i++ {
		row := phis.RowView(i)
		for j, w := range row {
			ss[j] += w * w
		}
	}
	nv := r.noise * r.noise
	for j := range means {
		variance := nv*ss[j] + nv
		means[j] = means[j]*r.yStd + r.yMean
		stds[j] = math.Sqrt(variance) * r.yStd
	}
	return means, stds
}

// Fit trains the approximation on (xs, ys); see fit for semantics. Like
// the exact entry points, fits report through the installed Hooks.
func (r *RFF) Fit(xs [][]float64, ys []float64) error {
	h := hooksPtr.Load()
	if h == nil || h.Fit == nil {
		return r.fit(xs, ys)
	}
	start := time.Now()
	err := r.fit(xs, ys)
	h.Fit(len(xs), time.Since(start))
	return err
}

// Predict returns the posterior at x; see predict for semantics.
func (r *RFF) Predict(x []float64) (mean, std float64) {
	h := hooksPtr.Load()
	if h == nil || h.Predict == nil {
		return r.predict(x)
	}
	start := time.Now()
	mean, std = r.predict(x)
	h.Predict(1, time.Since(start))
	return mean, std
}

// PredictBatch returns the posterior at every query point; see
// predictBatch for semantics.
func (r *RFF) PredictBatch(xs [][]float64) (means, stds []float64) {
	h := hooksPtr.Load()
	if h == nil || h.Predict == nil {
		return r.predictBatch(xs)
	}
	start := time.Now()
	means, stds = r.predictBatch(xs)
	h.Predict(len(xs), time.Since(start))
	return means, stds
}
