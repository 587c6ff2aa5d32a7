// Package linalg implements the dense linear algebra needed by the
// Gaussian-process and regression models: column-major-free dense matrices,
// Cholesky factorization of symmetric positive-definite systems,
// triangular solves and log-determinants.
//
// The package is deliberately small: it implements exactly what the tuning
// models need, with numerically careful but unoptimized kernels (the
// matrices involved are at most a few hundred rows — one per workload
// execution sample).
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by Cholesky when the input matrix is not symmetric
// positive definite (within numerical tolerance).
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix. Non-positive dimensions yield
// an empty matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 {
		rows = 0
	}
	if cols < 0 {
		cols = 0
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i as a live slice into the matrix storage. Writes
// through the slice mutate the matrix; callers that need a stable copy
// should use Row. It exists so hot paths can fill or scan rows without a
// per-element At/Set round trip.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// mulBlock is the cache-blocking tile edge for Mul: a kBlock×cols panel of
// the right operand is reused across every row of the left operand before
// the next panel is streamed in.
const mulBlock = 64

// Mul returns m·b, or ErrShape when inner dimensions differ. The kernel is
// cache-blocked over the inner dimension and operates on flat row slices;
// per-element accumulation order is unchanged (ascending k), so results are
// bit-identical to the naive triple loop.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: (%dx%d)·(%dx%d)", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := NewMatrix(m.rows, b.cols)
	bc := b.cols
	for k0 := 0; k0 < m.cols; k0 += mulBlock {
		k1 := k0 + mulBlock
		if k1 > m.cols {
			k1 = m.cols
		}
		for i := 0; i < m.rows; i++ {
			arow := m.data[i*m.cols : (i+1)*m.cols]
			orow := out.data[i*bc : (i+1)*bc]
			for k := k0; k < k1; k++ {
				a := arow[k]
				if a == 0 {
					continue
				}
				brow := b.data[k*bc : (k+1)*bc]
				for j, v := range brow {
					orow[j] += a * v
				}
			}
		}
	}
	return out, nil
}

// MulVec returns m·x, or ErrShape when len(x) != Cols.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)·vec(%d)", ErrShape, m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		sum := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out, nil
}

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
	n int
}

// NewCholesky factorizes the SPD matrix a. It returns ErrNotSPD when a is
// not square or a pivot is non-positive. The factorization proceeds row by
// row on flat slices — row i is derived from rows 0..i-1 exactly the way
// Extend appends a row, so growing a factor incrementally is bit-identical
// to refactorizing from scratch.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: %dx%d is not square", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		li := l.data[i*n : i*n+i+1]
		ai := a.data[i*n : i*n+i+1]
		for j := 0; j <= i; j++ {
			// Equal-length reslices let the compiler drop bounds checks in
			// the dot product; ascending k keeps the summation order (and
			// therefore the factor, bit for bit) of the reference loop.
			lj := l.data[j*n : j*n+j]
			lik := li[:j]
			sum := ai[j]
			for k, v := range lj {
				sum -= lik[k] * v
			}
			if j == i {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, sum)
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / l.data[j*n+j]
			}
		}
	}
	return &Cholesky{l: l, n: n}, nil
}

// Extend grows the factorization by one row/column in O(n²) instead of the
// O(n³) full refactorization. col is the new column of the augmented SPD
// matrix: col[i] = A[i][n] for i < n and col[n] = A[n][n]. The arithmetic
// is exactly the last row of a full factorization, so the extended factor
// is bit-identical to NewCholesky on the augmented matrix. On error the
// factorization is left unchanged.
func (c *Cholesky) Extend(col []float64) error {
	if len(col) != c.n+1 {
		return fmt.Errorf("%w: column length %d, want %d", ErrShape, len(col), c.n+1)
	}
	n := c.n
	// New row r solves L·r = col[:n]; the new pivot is col[n] - r·r.
	r, err := c.SolveForward(col[:n])
	if err != nil {
		return err
	}
	sum := col[n]
	for _, v := range r {
		sum -= v * v
	}
	if sum <= 0 || math.IsNaN(sum) {
		return fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, n, sum)
	}
	grown := NewMatrix(n+1, n+1)
	for i := 0; i < n; i++ {
		copy(grown.data[i*(n+1):i*(n+1)+i+1], c.l.data[i*n:i*n+i+1])
	}
	copy(grown.data[n*(n+1):n*(n+1)+n], r)
	grown.data[n*(n+1)+n] = math.Sqrt(sum)
	c.l = grown
	c.n = n + 1
	return nil
}

// N returns the dimension of the factorized system.
func (c *Cholesky) N() int { return c.n }

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// SolveVec solves A·x = b given the factorization, via forward and backward
// substitution.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), c.n)
	}
	n := c.n
	// Forward: L·y = b.
	y := make([]float64, n)
	c.solveForwardInto(y, b)
	// Backward: Lᵀ·x = y. L is accessed down column i, i.e. with stride n.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= c.l.data[k*n+i] * x[k]
		}
		x[i] = sum / c.l.data[i*n+i]
	}
	return x, nil
}

// SolveForward solves L·y = b (forward substitution only). The GP predictive
// variance needs this half-solve.
func (c *Cholesky) SolveForward(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("%w: rhs length %d, want %d", ErrShape, len(b), c.n)
	}
	y := make([]float64, c.n)
	c.solveForwardInto(y, b)
	return y, nil
}

// solveForwardInto writes the solution of L·y = b into y (len(y) == len(b)
// == c.n, y and b may alias only if identical).
func (c *Cholesky) solveForwardInto(y, b []float64) {
	n := c.n
	for i := 0; i < n; i++ {
		li := c.l.data[i*n : i*n+i+1]
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= li[k] * y[k]
		}
		y[i] = sum / li[i]
	}
}

// SolveForwardBatch solves L·Y = B for an n×m right-hand-side matrix in one
// pass, in place: on return b holds Y. Row i of Y is computed as a fused
// update over whole rows, which keeps the inner loops on contiguous
// memory — the batched half-solve the GP needs to score a whole candidate
// pool at once — and row i of B is read only before row i of Y is
// written, so no second n×m matrix is needed. Each column's result is
// bit-identical to SolveForward on that column.
func (c *Cholesky) SolveForwardBatch(b *Matrix) error {
	if b.rows != c.n {
		return fmt.Errorf("%w: rhs has %d rows, want %d", ErrShape, b.rows, c.n)
	}
	n, m := c.n, b.cols
	for i := 0; i < n; i++ {
		li := c.l.data[i*n : i*n+i+1]
		yi := b.data[i*m : (i+1)*m]
		for k := 0; k < i; k++ {
			f := li[k]
			yk := b.data[k*m : (k+1)*m]
			for j, v := range yk {
				yi[j] -= f * v
			}
		}
		d := li[i]
		for j := range yi {
			yi[j] /= d
		}
	}
	return nil
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	sum := 0.0
	for i := 0; i < c.n; i++ {
		sum += math.Log(c.l.At(i, i))
	}
	return 2 * sum
}

// Dot returns the inner product of equal-length vectors. Mismatched
// lengths are a programmer error and panic: silently truncating to the
// shorter vector turns shape bugs in callers into wrong numbers.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch: %d vs %d", len(a), len(b)))
	}
	sum := 0.0
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// AddDiagonal returns a copy of a with v added to each diagonal element
// (jitter/nugget regularization).
func AddDiagonal(a *Matrix, v float64) *Matrix {
	out := a.Clone()
	n := a.rows
	if a.cols < n {
		n = a.cols
	}
	for i := 0; i < n; i++ {
		out.Add(i, i, v)
	}
	return out
}
