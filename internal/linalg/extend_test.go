package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// leadingMinor returns the k×k leading principal submatrix of a.
func leadingMinor(a *Matrix, k int) *Matrix {
	out := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		copy(out.RowView(i), a.data[i*a.cols:i*a.cols+k])
	}
	return out
}

// Property: factorizing a leading minor and extending row by row yields a
// factor identical to refactorizing the full matrix from scratch.
func TestCholeskyExtendEqualsFullRefactorization(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(14)
		start := 1 + r.Intn(n-1)
		a := randomSPD(r, n)

		full, err := NewCholesky(a)
		if err != nil {
			return false
		}
		inc, err := NewCholesky(leadingMinor(a, start))
		if err != nil {
			return false
		}
		for k := start; k < n; k++ {
			col := make([]float64, k+1)
			for i := 0; i <= k; i++ {
				col[i] = a.At(i, k)
			}
			if err := inc.Extend(col); err != nil {
				return false
			}
		}
		if inc.N() != full.N() {
			return false
		}
		lf, li := full.L(), inc.L()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if lf.At(i, j) != li.At(i, j) {
					return false
				}
			}
		}
		return inc.LogDet() == full.LogDet()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyExtendErrors(t *testing.T) {
	a := randomSPD(rand.New(rand.NewSource(1)), 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Extend([]float64{1, 2}); err == nil {
		t.Error("short column did not error")
	}
	// A column whose diagonal entry is too small for positive definiteness
	// must be rejected and leave the factorization unchanged.
	before := ch.LogDet()
	bad := make([]float64, 5)
	copy(bad, a.Row(0))
	bad[4] = 0 // pivot = 0 - |r|^2 < 0
	if err := ch.Extend(bad); err == nil {
		t.Error("non-SPD extension did not error")
	}
	if ch.N() != 4 || ch.LogDet() != before {
		t.Error("failed Extend mutated the factorization")
	}
}

func TestSolveForwardBatchMatchesPerColumn(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 9, 24} {
		a := randomSPD(r, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		m := 5
		b := NewMatrix(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b.Set(i, j, r.NormFloat64())
			}
		}
		y := b.Clone()
		if err := ch.SolveForwardBatch(y); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < m; j++ {
			col := make([]float64, n)
			for i := 0; i < n; i++ {
				col[i] = b.At(i, j)
			}
			want, err := ch.SolveForward(col)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if y.At(i, j) != want[i] {
					t.Fatalf("n=%d col %d row %d: batch %v != vec %v", n, j, i, y.At(i, j), want[i])
				}
			}
		}
	}
	if err := (&Cholesky{}).SolveForwardBatch(NewMatrix(2, 2)); err == nil {
		t.Error("mismatched batch rhs did not error")
	}
}

// mulNaive is the retained reference implementation the optimized
// cache-blocked Mul is checked against.
func mulNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			v := a.At(i, k)
			if v == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.Add(i, j, v*b.At(k, j))
			}
		}
	}
	return out
}

func TestMulBlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	// Sizes straddling the block edge exercise partial tiles.
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {63, 64, 65}, {70, 130, 67}} {
		a := NewMatrix(dims[0], dims[1])
		b := NewMatrix(dims[1], dims[2])
		for i := range a.data {
			a.data[i] = r.NormFloat64()
		}
		for i := range b.data {
			b.data[i] = r.NormFloat64()
		}
		got, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		want := mulNaive(a, b)
		for i := range want.data {
			if got.data[i] != want.data[i] {
				t.Fatalf("dims %v: blocked Mul diverges from naive at flat index %d: %v vs %v",
					dims, i, got.data[i], want.data[i])
			}
		}
	}
}

func TestRowView(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	rv := m.RowView(1)
	rv[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("RowView is not a live view")
	}
	cp := m.Row(1)
	cp[0] = -1
	if m.At(1, 0) != 9 {
		t.Error("Row copy aliases the matrix")
	}
	if math.IsNaN(m.At(1, 1)) {
		t.Error("unexpected NaN")
	}
}
