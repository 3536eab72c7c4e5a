package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewDenseShape(t *testing.T) {
	m := NewDense(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	if len(m.Data) != 12 {
		t.Fatalf("len(Data) = %d want 12", len(m.Data))
	}
}

func TestNewDenseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dims")
		}
	}()
	NewDense(-1, 2)
}

func TestNewDenseDataLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestAtSetRoundTrip(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v want 7.5", got)
	}
	if got := m.Data[1*3+2]; got != 7.5 {
		t.Fatalf("row-major layout violated: %v", got)
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randDense(rng, 7, 5)
	tr := m.T()
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(20)
		c := 1 + rng.Intn(20)
		m := randDense(rng, r, c)
		tt := m.T().T()
		for i := range m.Data {
			if m.Data[i] != tt.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randDense(rng, 6, 6)
	p := Mul(m, Eye(6))
	for i := range m.Data {
		if !almostEq(m.Data[i], p.Data[i], 1e-14) {
			t.Fatalf("A·I ≠ A at %d", i)
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	p := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if p.Data[i] != w {
			t.Fatalf("Mul known product: got %v want %v", p.Data, want)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulParallelMatchesSerial(t *testing.T) {
	// Large enough to cross the parallel threshold.
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 130, 90)
	b := randDense(rng, 90, 110)
	p := Mul(a, b)
	// Serial reference.
	ref := NewDense(130, 110)
	for i := 0; i < a.R; i++ {
		for k := 0; k < a.C; k++ {
			for j := 0; j < b.C; j++ {
				ref.Data[i*ref.C+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	if d := Sub(p, ref).FrobNorm(); d > 1e-10 {
		t.Fatalf("parallel multiply deviates from serial by %g", d)
	}
}

func TestMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randDense(rng, 40, 30)
	b := randDense(rng, 40, 20)
	got := MulT(a, b)
	want := Mul(a.T(), b)
	if d := Sub(got, want).FrobNorm(); d > 1e-10 {
		t.Fatalf("MulT deviates by %g", d)
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	got := MulVec(a, []float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v want [17 39]", got)
	}
}

func TestGramMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 30, 12)
	gc := Gram(a, true)
	wantC := Mul(a.T(), a)
	if d := Sub(gc, wantC).FrobNorm(); d > 1e-10 {
		t.Fatalf("Gram cols deviates by %g", d)
	}
	gr := Gram(a, false)
	wantR := Mul(a, a.T())
	if d := Sub(gr, wantR).FrobNorm(); d > 1e-10 {
		t.Fatalf("Gram rows deviates by %g", d)
	}
}

func TestGramSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randDense(rng, 2+rng.Intn(20), 2+rng.Intn(20))
		g := Gram(a, true)
		for i := 0; i < g.R; i++ {
			for j := 0; j < g.C; j++ {
				if g.At(i, j) != g.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHStackVStack(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 1, []float64{9, 10})
	h := HStack(a, b)
	if h.C != 3 || h.At(0, 2) != 9 || h.At(1, 2) != 10 {
		t.Fatalf("HStack wrong: %+v", h)
	}
	c := NewDenseData(1, 2, []float64{7, 8})
	v := VStack(a, c)
	if v.R != 3 || v.At(2, 0) != 7 || v.At(2, 1) != 8 {
		t.Fatalf("VStack wrong: %+v", v)
	}
}

func TestColSliceRowSlice(t *testing.T) {
	a := NewDenseData(2, 4, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	cs := a.ColSlice(1, 3)
	if cs.R != 2 || cs.C != 2 || cs.At(0, 0) != 2 || cs.At(1, 1) != 7 {
		t.Fatalf("ColSlice wrong: %+v", cs)
	}
	rs := a.RowSlice(1, 2)
	if rs.R != 1 || rs.At(0, 0) != 5 {
		t.Fatalf("RowSlice wrong: %+v", rs)
	}
}

func TestSubsample(t *testing.T) {
	a := NewDenseData(1, 7, []float64{0, 1, 2, 3, 4, 5, 6})
	s := a.Subsample(3)
	want := []float64{0, 3, 6}
	if s.C != 3 {
		t.Fatalf("Subsample cols = %d want 3", s.C)
	}
	for i, w := range want {
		if s.At(0, i) != w {
			t.Fatalf("Subsample = %v want %v", s.Row(0), want)
		}
	}
	// stride 1 must be a copy, not an alias
	s1 := a.Subsample(1)
	s1.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Subsample(1) aliased the source")
	}
}

func TestFrobNorm(t *testing.T) {
	a := NewDenseData(1, 2, []float64{3, 4})
	if got := a.FrobNorm(); !almostEq(got, 5, 1e-14) {
		t.Fatalf("FrobNorm = %v want 5", got)
	}
}

func TestHasNaN(t *testing.T) {
	a := NewDense(2, 2)
	if a.HasNaN() {
		t.Fatal("zero matrix reported NaN")
	}
	a.Set(0, 1, math.NaN())
	if !a.HasNaN() {
		t.Fatal("NaN not detected")
	}
	a.Set(0, 1, math.Inf(1))
	if !a.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func TestQRFactorProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(30)
		n := 1 + rng.Intn(m)
		a := randDense(rng, m, n)
		qr := QRFactor(a)
		// Q orthonormal.
		qtq := Mul(qr.Q.T(), qr.Q)
		if d := Sub(qtq, Eye(n)).FrobNorm(); d > 1e-10 {
			return false
		}
		// QR = A.
		if d := Sub(Mul(qr.Q, qr.R), a).FrobNorm(); d > 1e-10*(1+a.FrobNorm()) {
			return false
		}
		// R upper triangular.
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if qr.R.At(i, j) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 8
	a := NewCDense(n, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	xTrue := make([]complex128, n)
	for i := range xTrue {
		xTrue[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := CMulVec(a, xTrue)
	lu := CLUFactorInPlace(a)
	x := lu.Solve(b)
	for i := range x {
		if d := x[i] - xTrue[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			t.Fatalf("CLU solve wrong at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestCLstSqExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, n := 12, 5
	a := NewCDense(m, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	xTrue := make([]complex128, n)
	for i := range xTrue {
		xTrue[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := CMulVec(a, xTrue)
	x := CLstSq(a, b)
	for i := range x {
		if d := x[i] - xTrue[i]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("CLstSq wrong at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestDiagOfAndEye(t *testing.T) {
	d := DiagOf([]float64{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Fatal("DiagOf wrong")
	}
	e := Eye(3)
	if d2 := Sub(Mul(d, e), d).FrobNorm(); d2 != 0 {
		t.Fatal("Eye is not multiplicative identity")
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewDenseData(1, 3, []float64{1, 2, 3})
	b := NewDenseData(1, 3, []float64{4, 5, 6})
	if got := Add(a, b).Data[2]; got != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data[0]; got != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Scale(2, a).Data[1]; got != 4 {
		t.Fatalf("Scale = %v", got)
	}
	c := a.Clone()
	SubInPlace(c, a)
	if c.FrobNorm() != 0 {
		t.Fatal("SubInPlace wrong")
	}
}

func BenchmarkMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, 256, 256)
	y := randDense(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkGram1000x200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, 1000, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gram(x, true)
	}
}
