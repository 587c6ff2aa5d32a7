package gp

import (
	"errors"
	"fmt"
	"math"

	"seamlesstune/internal/linalg"
	"seamlesstune/internal/stat"
)

// ErrNoData is returned when Fit is called with an empty or mismatched
// sample.
var ErrNoData = errors.New("gp: empty or mismatched training data")

// nugget is the unconditional jitter added to the kernel diagonal on top
// of the observation noise.
const nugget = 1e-8

// GP is a Gaussian-process regressor. Construct with New; the zero value
// is not usable. Targets are standardized internally so kernels can assume
// zero-mean unit-variance observations.
type GP struct {
	kernel Kernel
	noise  float64

	xs    [][]float64
	yMean float64
	yStd  float64
	chol  *linalg.Cholesky
	alpha []float64
	lml   float64
	// fitKernel snapshots the kernel parameters of the last successful
	// Fit (a deep copy for pointer kernels). Predictions use it, so
	// mutating a shared kernel after fitting — the FitAdditive coordinate
	// sweep does exactly that — cannot invalidate a captured fit.
	fitKernel Kernel
}

// New returns a GP with the given kernel and observation-noise standard
// deviation (in standardized target units). Non-positive noise gets a
// small jitter.
func New(kernel Kernel, noise float64) *GP {
	if noise <= 0 {
		noise = 1e-3
	}
	return &GP{kernel: kernel, noise: noise}
}

// Kernel returns the kernel in use.
func (g *GP) Kernel() Kernel { return g.kernel }

// N returns the number of training points.
func (g *GP) N() int { return len(g.xs) }

// fit trains the GP on (xs, ys). It copies the inputs. Fitting fails only
// on empty/mismatched data or a numerically broken kernel.
//
// Fast path: when the kernel parameters are unchanged since the last fit
// and xs extends the previous training set by appended rows, the existing
// Cholesky factor is grown one row at a time in O(n²) per row instead of
// refactorized in O(n³). The incremental arithmetic is exactly the last
// rows of a full factorization, so the fitted model is bit-identical.
func (g *GP) fit(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return fmt.Errorf("%w: %d xs, %d ys", ErrNoData, len(xs), len(ys))
	}
	if g.tryExtend(xs, ys) {
		return nil
	}
	own := make([][]float64, len(xs))
	for i, x := range xs {
		own[i] = append([]float64(nil), x...)
	}
	return g.fitPrebuilt(own, ys, buildKernelMatrix(g.kernel, own))
}

// tryExtend attempts the incremental-refit fast path; it reports whether
// the fit was completed. On any internal failure the GP is left unfitted
// so a full Fit retry starts clean.
func (g *GP) tryExtend(xs [][]float64, ys []float64) bool {
	if g.chol == nil || len(xs) <= len(g.xs) || !kernelsEqual(g.kernel, g.fitKernel) {
		return false
	}
	for i, prev := range g.xs {
		if !floatsEqual(prev, xs[i]) {
			return false
		}
	}
	diag := g.noise*g.noise + nugget
	for r := len(g.xs); r < len(xs); r++ {
		x := append([]float64(nil), xs[r]...)
		col := make([]float64, r+1)
		for i, xi := range g.xs {
			col[i] = g.kernel.Eval(xi, x)
		}
		col[r] = g.kernel.Eval(x, x) + diag
		if err := g.chol.Extend(col); err != nil {
			// Partially extended state is unusable: drop the factor so the
			// caller's full refit (or the next Fit) rebuilds from scratch.
			g.chol = nil
			return false
		}
		g.xs = append(g.xs, x)
	}
	return g.refreshTargets(ys) == nil
}

// fitPrebuilt completes a fit from an already-built (noise-free) kernel
// matrix. It takes ownership of xs and k.
func (g *GP) fitPrebuilt(xs [][]float64, ys []float64, k *linalg.Matrix) error {
	n := len(xs)
	diag := g.noise*g.noise + nugget
	for i := 0; i < n; i++ {
		k.Add(i, i, diag)
	}
	chol, err := linalg.NewCholesky(k)
	if err != nil {
		return fmt.Errorf("gp: kernel matrix not SPD: %w", err)
	}
	g.xs = xs
	g.chol = chol
	return g.refreshTargets(ys)
}

// refreshTargets (re)standardizes the targets against the current
// factorization and recomputes alpha and the log marginal likelihood.
func (g *GP) refreshTargets(ys []float64) error {
	n := len(g.xs)
	g.yMean = stat.Mean(ys)
	g.yStd = stat.Std(ys)
	if g.yStd <= 1e-12 {
		g.yStd = 1
	}
	yn := make([]float64, n)
	for i, y := range ys {
		yn[i] = (y - g.yMean) / g.yStd
	}
	alpha, err := g.chol.SolveVec(yn)
	if err != nil {
		g.chol = nil
		return err
	}
	g.alpha = alpha
	g.fitKernel = cloneKernel(g.kernel)
	// Log marginal likelihood of the standardized targets.
	g.lml = -0.5*linalg.Dot(yn, alpha) - 0.5*g.chol.LogDet() - float64(n)/2*math.Log(2*math.Pi)
	return nil
}

// buildKernelMatrix evaluates the symmetric kernel matrix over xs,
// dispatching stationary kernels through their squared-distance form.
func buildKernelMatrix(k Kernel, xs [][]float64) *linalg.Matrix {
	n := len(xs)
	m := linalg.NewMatrix(n, n)
	if sk, ok := k.(sqDistKernel); ok {
		for i := 0; i < n; i++ {
			row := m.RowView(i)
			for j := i; j < n; j++ {
				row[j] = sk.evalSq(sqDist(xs[i], xs[j]))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			row := m.RowView(i)
			for j := i; j < n; j++ {
				row[j] = k.Eval(xs[i], xs[j])
			}
		}
	}
	// Mirror the strict upper triangle.
	for i := 1; i < n; i++ {
		row := m.RowView(i)
		for j := 0; j < i; j++ {
			row[j] = m.RowView(j)[i]
		}
	}
	return m
}

// transformDistMatrix builds the kernel matrix from a precomputed pairwise
// squared-distance matrix — the 24 grid fits of FitWithHypers share one
// distance build this way.
func transformDistMatrix(sk sqDistKernel, d2 *linalg.Matrix) *linalg.Matrix {
	n := d2.Rows()
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		di := d2.RowView(i)
		row := m.RowView(i)
		for j := i; j < n; j++ {
			row[j] = sk.evalSq(di[j])
		}
	}
	for i := 1; i < n; i++ {
		row := m.RowView(i)
		for j := 0; j < i; j++ {
			row[j] = m.RowView(j)[i]
		}
	}
	return m
}

// Fitted reports whether Fit has succeeded.
func (g *GP) Fitted() bool { return g.chol != nil }

// LogMarginalLikelihood returns the LML of the last Fit (0 if unfitted).
func (g *GP) LogMarginalLikelihood() float64 { return g.lml }

// predict returns the posterior mean and standard deviation at x, in the
// original target units. An unfitted GP predicts (0, +Inf).
func (g *GP) predict(x []float64) (mean, std float64) {
	if !g.Fitted() {
		return 0, math.Inf(1)
	}
	n := len(g.xs)
	kx := make([]float64, n)
	for i := range g.xs {
		kx[i] = g.fitKernel.Eval(g.xs[i], x)
	}
	mu := linalg.Dot(kx, g.alpha)
	v, err := g.chol.SolveForward(kx)
	if err != nil {
		return g.yMean, g.yStd
	}
	variance := g.fitKernel.Eval(x, x) + g.noise*g.noise - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mu*g.yStd + g.yMean, math.Sqrt(variance) * g.yStd
}

// predictBatch returns the posterior means and standard deviations at a
// whole pool of query points at once: one n×m kernel block, one batched
// triangular solve. The results are bit-identical to calling Predict per
// point, at a fraction of the cost — the acquisition scoring hot path.
func (g *GP) predictBatch(xs [][]float64) (means, stds []float64) {
	m := len(xs)
	means = make([]float64, m)
	stds = make([]float64, m)
	if !g.Fitted() {
		for j := range stds {
			stds[j] = math.Inf(1)
		}
		return means, stds
	}
	n := len(g.xs)
	kstar := linalg.NewMatrix(n, m)
	for i := 0; i < n; i++ {
		row := kstar.RowView(i)
		xi := g.xs[i]
		for j, q := range xs {
			row[j] = g.fitKernel.Eval(xi, q)
		}
	}
	// mu = Kstarᵀ·alpha, accumulated row-major (ascending training index,
	// matching Predict's Dot order).
	for i, a := range g.alpha {
		row := kstar.RowView(i)
		for j, v := range row {
			means[j] += v * a
		}
	}
	// The half-solve overwrites kstar, which the mean no longer needs.
	if err := g.chol.SolveForwardBatch(kstar); err != nil {
		for j := range means {
			means[j], stds[j] = g.yMean, g.yStd
		}
		return means, stds
	}
	ss := make([]float64, m)
	for i := 0; i < n; i++ {
		row := kstar.RowView(i)
		for j, w := range row {
			ss[j] += w * w
		}
	}
	noiseVar := g.noise * g.noise
	for j, q := range xs {
		variance := g.fitKernel.Eval(q, q) + noiseVar - ss[j]
		if variance < 0 {
			variance = 0
		}
		means[j] = means[j]*g.yStd + g.yMean
		stds[j] = math.Sqrt(variance) * g.yStd
	}
	return means, stds
}

// KernelKind selects the base kernel family for hyperparameter fitting.
type KernelKind int

// Kernel families for FitWithHypers.
const (
	KindSE KernelKind = iota
	KindMatern52
)

// hyperLengthScales and hyperNoises are the marginal-likelihood grid.
var (
	hyperLengthScales = []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6}
	hyperNoises       = []float64{0.01, 0.05, 0.15, 0.4}
)

// HyperFitter performs grid-search marginal-likelihood fitting like
// FitWithHypers, but persists the per-combination models between calls:
// when successive Fit calls only append observations (the Bayesian-
// optimization loop), every grid model is extended incrementally in O(n²)
// per new row instead of refit in O(n³), and the pairwise distance matrix
// is computed once and shared across the entire grid. Results are
// bit-identical to one-shot FitWithHypers. Not safe for concurrent use.
type HyperFitter struct {
	kind KernelKind
	xs   [][]float64
	d2   *linalg.Matrix
	gps  []*GP
}

// NewHyperFitter returns an empty incremental fitter for the kernel family.
func NewHyperFitter(kind KernelKind) *HyperFitter {
	return &HyperFitter{kind: kind}
}

// fit selects hyperparameters by grid-search marginal likelihood over the
// accumulated sample and returns the best-fit GP. The returned GP is owned
// by the fitter and remains valid (read-only) until the next Fit call.
func (h *HyperFitter) fit(xs [][]float64, ys []float64) (*GP, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d xs, %d ys", ErrNoData, len(xs), len(ys))
	}
	h.sync(xs)
	if h.gps == nil {
		h.gps = make([]*GP, len(hyperLengthScales)*len(hyperNoises))
	}
	var best *GP
	bestLML := math.Inf(-1)
	idx := 0
	for _, l := range hyperLengthScales {
		// The kernel matrix depends on the length scale but not the noise
		// (noise only shifts the diagonal, which fitPrebuilt adds to its
		// own copy), so one transform serves all noise levels. Built
		// lazily: rounds where every model extends incrementally skip it.
		var kl *linalg.Matrix
		kbase := func(sk sqDistKernel) *linalg.Matrix {
			if kl == nil {
				kl = transformDistMatrix(sk, h.d2)
			}
			return kl.Clone()
		}
		for _, nz := range hyperNoises {
			g := h.gps[idx]
			if g == nil {
				var k Kernel
				if h.kind == KindMatern52 {
					k = Matern52{Variance: 1, LengthScale: l}
				} else {
					k = SE{Variance: 1, LengthScale: l}
				}
				g = New(k, nz)
				h.gps[idx] = g
			}
			idx++
			if err := h.fitOne(g, ys, kbase); err != nil {
				continue
			}
			if g.lml > bestLML {
				bestLML = g.lml
				best = g
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("gp: no hyperparameter combination produced a valid fit")
	}
	return best, nil
}

// fitOne fits or incrementally extends one grid model against the synced
// training set. kbase supplies a private copy of the length scale's shared
// kernel matrix for the full-fit path.
func (h *HyperFitter) fitOne(g *GP, ys []float64, kbase func(sqDistKernel) *linalg.Matrix) error {
	n := len(h.xs)
	if g.chol != nil && g.N() <= n && h.extendOne(g, ys) {
		return nil
	}
	return g.fitPrebuilt(h.xs[:n:n], ys, kbase(g.kernel.(sqDistKernel)))
}

// extendOne grows g's factorization with the rows beyond its current
// sample, reading kernel values off the shared distance matrix.
func (h *HyperFitter) extendOne(g *GP, ys []float64) bool {
	sk := g.kernel.(sqDistKernel)
	n := len(h.xs)
	diag := g.noise*g.noise + nugget
	for r := g.N(); r < n; r++ {
		dr := h.d2.RowView(r)
		col := make([]float64, r+1)
		for i := 0; i < r; i++ {
			col[i] = sk.evalSq(dr[i])
		}
		col[r] = sk.evalSq(dr[r]) + diag
		if err := g.chol.Extend(col); err != nil {
			g.chol = nil
			return false
		}
	}
	g.xs = h.xs[:n:n]
	return g.refreshTargets(ys) == nil
}

// sync reconciles the fitter's canonical training copy and distance matrix
// with xs. Appended rows extend both incrementally; any other change
// resets the fitter (a different prefix means every cached factorization
// is invalid).
func (h *HyperFitter) sync(xs [][]float64) {
	appended := len(xs) >= len(h.xs)
	if appended {
		for i, prev := range h.xs {
			if !floatsEqual(prev, xs[i]) {
				appended = false
				break
			}
		}
	}
	if !appended {
		h.xs = nil
		h.d2 = nil
		h.gps = nil
	}
	old := len(h.xs)
	if len(xs) == old {
		return
	}
	for _, x := range xs[old:] {
		h.xs = append(h.xs, append([]float64(nil), x...))
	}
	n := len(h.xs)
	d2 := linalg.NewMatrix(n, n)
	for i := 0; i < old; i++ {
		copy(d2.RowView(i)[:old], h.d2.RowView(i))
	}
	for i := old; i < n; i++ {
		row := d2.RowView(i)
		for j := 0; j <= i; j++ {
			row[j] = sqDist(h.xs[i], h.xs[j])
		}
	}
	// Mirror so RowView(i) carries the full row for both fits and extends.
	for i := 0; i < n; i++ {
		row := d2.RowView(i)
		for j := i + 1; j < n; j++ {
			row[j] = d2.RowView(j)[i]
		}
	}
	h.d2 = d2
}

// FitWithHypers selects hyperparameters by grid-search marginal
// likelihood and fits the returned GP. It tries every combination from
// small fixed grids — cheap at tuning-sample sizes (tens to hundreds of
// points). Callers that refit a growing sample repeatedly should hold a
// HyperFitter instead and get incremental refits.
func FitWithHypers(kind KernelKind, xs [][]float64, ys []float64) (*GP, error) {
	return NewHyperFitter(kind).Fit(xs, ys)
}

// fitAdditive fits an additive-SE GP by coordinate-wise marginal-
// likelihood search over per-dimension variances, starting from uniform
// shares. It returns the fitted GP; the kernel's Sensitivity exposes the
// per-parameter influence decomposition.
//
// The sweep caches one squared-difference matrix and one term matrix per
// dimension: changing dimension d's hyperparameters re-exponentiates only
// that dimension's term, so each candidate costs O(n²·dim) additions plus
// O(n²) exp calls instead of O(n²·dim) exp calls.
func fitAdditive(xs [][]float64, ys []float64, sweeps int) (*GP, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("%w: %d xs, %d ys", ErrNoData, len(xs), len(ys))
	}
	dim := len(xs[0])
	own := make([][]float64, len(xs))
	for i, x := range xs {
		own[i] = append([]float64(nil), x...)
	}
	kernel := NewAdditiveSE(dim)
	// Start deliberately underfit (tiny per-dimension variances): the
	// marginal likelihood then rewards growing exactly the dimensions
	// that explain the response, which is what makes the decomposition
	// interpretable.
	for d := range kernel.Variances {
		kernel.Variances[d] = 0.05 / float64(dim)
	}
	cache := newAdditiveCache(own, dim)
	g := New(kernel, 0.1)
	fit := func() error {
		return g.fitPrebuilt(own, ys, cache.kernelMatrix(kernel))
	}
	if err := fit(); err != nil {
		return nil, err
	}
	if sweeps <= 0 {
		sweeps = 2
	}
	vScales := []float64{0.05, 0.2, 0.5, 1, 2, 5, 20}
	lengths := []float64{0.15, 0.3, 0.6, 1.5, 4}
	for s := 0; s < sweeps; s++ {
		for d := 0; d < dim; d++ {
			bestV, bestL, bestLML := kernel.Variances[d], kernel.LengthScales[d], g.lml
			origV := kernel.Variances[d]
			for _, m := range vScales {
				for _, l := range lengths {
					kernel.Variances[d] = origV * m
					kernel.LengthScales[d] = l
					if err := fit(); err != nil {
						continue
					}
					if g.lml > bestLML {
						bestLML = g.lml
						bestV, bestL = kernel.Variances[d], kernel.LengthScales[d]
					}
				}
			}
			kernel.Variances[d], kernel.LengthScales[d] = bestV, bestL
			if err := fit(); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// additiveCache holds per-dimension squared-difference matrices and the
// current per-dimension term matrices v_d·exp(-Δ²/(2l_d²)) for an
// additive-SE coordinate sweep.
type additiveCache struct {
	n     int
	diffs []*linalg.Matrix // squared per-dimension differences (+Inf where a row lacks the dimension)
	terms []*linalg.Matrix // term matrices for the snapshot parameters below
	vs    []float64
	ls    []float64
}

func newAdditiveCache(xs [][]float64, dim int) *additiveCache {
	n := len(xs)
	c := &additiveCache{
		n:     n,
		diffs: make([]*linalg.Matrix, dim),
		terms: make([]*linalg.Matrix, dim),
		vs:    make([]float64, dim),
		ls:    make([]float64, dim),
	}
	for d := 0; d < dim; d++ {
		m := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			row := m.RowView(i)
			for j := 0; j < n; j++ {
				if d >= len(xs[i]) || d >= len(xs[j]) {
					// AdditiveSE.Eval skips dimensions a point lacks; an
					// infinite distance makes the term exp(-Inf) = 0.
					row[j] = math.Inf(1)
					continue
				}
				diff := xs[i][d] - xs[j][d]
				row[j] = diff * diff
			}
		}
		c.diffs[d] = m
		c.vs[d] = math.NaN() // force first materialization
	}
	return c
}

// kernelMatrix returns a freshly allocated kernel matrix for the kernel's
// current parameters, re-exponentiating only the dimensions whose
// parameters changed since the previous call. Terms are summed in
// dimension order, matching AdditiveSE.Eval bit for bit.
func (c *additiveCache) kernelMatrix(k *AdditiveSE) *linalg.Matrix {
	n := c.n
	out := linalg.NewMatrix(n, n)
	for d := range c.diffs {
		v, l := k.Variances[d], k.LengthScales[d]
		if l <= 0 {
			l = 0.3
		}
		if c.terms[d] == nil || v != c.vs[d] || l != c.ls[d] {
			t := c.terms[d]
			if t == nil {
				t = linalg.NewMatrix(n, n)
				c.terms[d] = t
			}
			twoL2 := 2 * l * l
			for i := 0; i < n; i++ {
				drow := c.diffs[d].RowView(i)
				trow := t.RowView(i)
				for j := i; j < n; j++ {
					// Division (not multiply-by-reciprocal) matches
					// AdditiveSE.Eval bit for bit.
					trow[j] = v * math.Exp(-drow[j]/twoL2)
				}
			}
			for i := 1; i < n; i++ {
				trow := t.RowView(i)
				for j := 0; j < i; j++ {
					trow[j] = c.terms[d].RowView(j)[i]
				}
			}
			c.vs[d], c.ls[d] = v, l
		}
		t := c.terms[d]
		for i := 0; i < n; i++ {
			orow := out.RowView(i)
			trow := t.RowView(i)
			for j, tv := range trow {
				orow[j] += tv
			}
		}
	}
	return out
}

// ExpectedImprovement returns EI for minimization at a point with
// posterior (mean, std), relative to the best observed value. Zero std
// yields max(best-mean, 0).
func ExpectedImprovement(mean, std, best float64) float64 {
	if std <= 0 {
		if mean < best {
			return best - mean
		}
		return 0
	}
	z := (best - mean) / std
	return (best-mean)*stat.NormalCDF(z) + std*stat.NormalPDF(z)
}

// ExpectedImprovementParts splits EI into its exploitation term
// (best-mean)·Φ(z) — improvement the posterior mean already promises —
// and its exploration term std·φ(z) — improvement bought by posterior
// uncertainty. The parts sum exactly to ExpectedImprovement; zero std
// attributes everything to exploitation, matching its degenerate case.
func ExpectedImprovementParts(mean, std, best float64) (exploit, explore float64) {
	if std <= 0 {
		if mean < best {
			return best - mean, 0
		}
		return 0, 0
	}
	z := (best - mean) / std
	return (best - mean) * stat.NormalCDF(z), std * stat.NormalPDF(z)
}

// LCB returns the lower confidence bound mean - beta·std (minimization:
// smaller is more promising).
func LCB(mean, std, beta float64) float64 { return mean - beta*std }
