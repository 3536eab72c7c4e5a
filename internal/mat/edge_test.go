package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestMulIntoReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 8, 6)
	b := randDense(rng, 6, 5)
	dst := NewDense(8, 5)
	// Pre-dirty the destination: MulInto must zero it first.
	for i := range dst.Data {
		dst.Data[i] = 99
	}
	MulInto(dst, a, b)
	want := Mul(a, b)
	if d := Sub(dst, want).FrobNorm(); d > 1e-12 {
		t.Fatalf("MulInto deviates by %g", d)
	}
}

func TestMulIntoShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad output shape")
		}
	}()
	MulInto(NewDense(2, 2), NewDense(2, 3), NewDense(3, 3))
}

func TestMulTShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for row mismatch")
		}
	}()
	MulT(NewDense(3, 2), NewDense(4, 2))
}

func TestMulVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	MulVec(NewDense(2, 3), []float64{1, 2})
}

func TestVStackMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for column mismatch")
		}
	}()
	VStack(NewDense(1, 2), NewDense(1, 3))
}

func TestHStackMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for row mismatch")
		}
	}()
	HStack(NewDense(2, 1), NewDense(3, 1))
}

func TestColSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range slice")
		}
	}()
	NewDense(2, 3).ColSlice(1, 4)
}

// TestColsViewZeroRows: a column view of a matrix without rows is an
// empty view, not a slice-bounds panic.
func TestColsViewZeroRows(t *testing.T) {
	v := ColsView(NewDense(0, 64), 1, 64)
	if v.R != 0 || v.C != 63 || len(v.Data) != 0 {
		t.Fatalf("view is %d×%d with %d elements, want 0×63 with none", v.R, v.C, len(v.Data))
	}
}

func TestRowSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range slice")
		}
	}()
	NewDense(2, 3).RowSlice(0, 3)
}

func TestQRFactorWidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide matrix")
		}
	}()
	QRFactor(NewDense(2, 5))
}

func TestColHelpers(t *testing.T) {
	m := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	col := m.Col(1)
	if col[0] != 2 || col[2] != 6 {
		t.Fatalf("Col = %v", col)
	}
	// Col returns a copy.
	col[0] = 99
	if m.At(0, 1) == 99 {
		t.Fatal("Col aliased the matrix")
	}
	m.SetCol(0, []float64{7, 8, 9})
	if m.At(2, 0) != 9 {
		t.Fatal("SetCol failed")
	}
}

func TestSetColLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad column length")
		}
	}()
	NewDense(3, 2).SetCol(0, []float64{1, 2})
}

func TestCloneIndependence(t *testing.T) {
	a := NewDenseData(1, 2, []float64{1, 2})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone aliased the source")
	}
}

func TestMaxAbs(t *testing.T) {
	a := NewDenseData(1, 3, []float64{-7, 2, 5})
	if a.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v want 7", a.MaxAbs())
	}
	if NewDense(0, 0).MaxAbs() != 0 {
		t.Fatal("empty MaxAbs should be 0")
	}
}

func TestGramEmptyAndSingle(t *testing.T) {
	g := Gram(NewDense(0, 3), true)
	if g.R != 3 || g.FrobNorm() != 0 {
		t.Fatal("empty-row Gram wrong")
	}
	one := NewDenseData(1, 1, []float64{3})
	if got := Gram(one, true).At(0, 0); got != 9 {
		t.Fatalf("1×1 Gram = %v want 9", got)
	}
}

func TestCLUSingularStaysFinite(t *testing.T) {
	// Exactly singular: the guarded pivot keeps solves finite (inverse
	// iteration relies on this).
	a := NewCDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	lu := CLUFactorInPlace(a)
	x := lu.Solve([]complex128{1, 2})
	for _, v := range x {
		if math.IsNaN(real(v)) || math.IsNaN(imag(v)) {
			t.Fatal("singular solve produced NaN")
		}
	}
}

func TestSubsampleEdge(t *testing.T) {
	a := NewDenseData(1, 4, []float64{0, 1, 2, 3})
	s := a.Subsample(4)
	if s.C != 1 || s.At(0, 0) != 0 {
		t.Fatalf("Subsample(4) = %v", s.Row(0))
	}
	s = a.Subsample(100)
	if s.C != 1 {
		t.Fatal("oversized stride should keep the first column")
	}
}
