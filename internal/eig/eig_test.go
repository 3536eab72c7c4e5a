package eig

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"imrdmd/internal/mat"
)

// toComplex converts a packed real matrix to complex.
func toComplex(a *mat.Dense) *mat.CDense {
	out := mat.NewCDense(a.R, a.C)
	for i, v := range a.Data {
		out.Data[i] = complex(v, 0)
	}
	return out
}

func randSymmetric(rng *rand.Rand, n int) *mat.Dense {
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestSymmetricDiagonal(t *testing.T) {
	a := mat.DiagOf([]float64{3, 1, 2})
	w, v := Symmetric(a)
	want := []float64{3, 2, 1}
	for i, x := range want {
		if math.Abs(w[i]-x) > 1e-12 {
			t.Fatalf("eigenvalues %v want %v", w, want)
		}
	}
	// Eigenvectors must be signed unit vectors.
	for j := 0; j < 3; j++ {
		var nrm float64
		for i := 0; i < 3; i++ {
			nrm += v.At(i, j) * v.At(i, j)
		}
		if math.Abs(nrm-1) > 1e-12 {
			t.Fatalf("eigenvector %d not unit norm", j)
		}
	}
}

func TestSymmetricKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := mat.NewDenseData(2, 2, []float64{2, 1, 1, 2})
	w, _ := Symmetric(a)
	if math.Abs(w[0]-3) > 1e-12 || math.Abs(w[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues %v want [3 1]", w)
	}
}

func TestSymmetricResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randSymmetric(rng, n)
		w, v := Symmetric(a)
		// A v_j = w_j v_j for all j.
		for j := 0; j < n; j++ {
			col := v.Col(j)
			av := mat.MulVec(a, col)
			for i := 0; i < n; i++ {
				if math.Abs(av[i]-w[j]*col[i]) > 1e-8*(1+a.FrobNorm()) {
					return false
				}
			}
		}
		// V orthonormal.
		vtv := mat.Mul(v.T(), v)
		return mat.Sub(vtv, mat.Eye(n)).FrobNorm() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricDescendingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSymmetric(rng, 10)
	w, _ := Symmetric(a)
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(w))) {
		t.Fatalf("eigenvalues not descending: %v", w)
	}
}

func TestSymmetricEmptyAndScalar(t *testing.T) {
	w, _ := Symmetric(mat.NewDense(0, 0))
	if len(w) != 0 {
		t.Fatal("empty matrix should give no eigenvalues")
	}
	w, v := Symmetric(mat.NewDenseData(1, 1, []float64{4}))
	if w[0] != 4 || v.At(0, 0) != 1 {
		t.Fatal("scalar eigendecomposition wrong")
	}
}

func TestNonsymmetricRealSpectrum(t *testing.T) {
	// Upper triangular: eigenvalues are the diagonal.
	a := mat.NewDenseData(3, 3, []float64{
		2, 1, 0,
		0, -1, 3,
		0, 0, 0.5,
	})
	vals, _ := Nonsymmetric(a)
	got := make([]float64, 0, 3)
	for _, v := range vals {
		if math.Abs(imag(v)) > 1e-8 {
			t.Fatalf("expected real spectrum, got %v", vals)
		}
		got = append(got, real(v))
	}
	sort.Float64s(got)
	want := []float64{-1, 0.5, 2}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("eigenvalues %v want %v", got, want)
		}
	}
}

func TestNonsymmetricRotationComplexPair(t *testing.T) {
	// A rotation by θ has eigenvalues e^{±iθ}.
	theta := 0.3
	a := mat.NewDenseData(2, 2, []float64{
		math.Cos(theta), -math.Sin(theta),
		math.Sin(theta), math.Cos(theta),
	})
	vals, _ := Nonsymmetric(a)
	if len(vals) != 2 {
		t.Fatalf("want 2 eigenvalues, got %d", len(vals))
	}
	for _, v := range vals {
		if math.Abs(cmplx.Abs(v)-1) > 1e-8 {
			t.Fatalf("|λ| = %v want 1", cmplx.Abs(v))
		}
		if math.Abs(math.Abs(imag(v))-math.Sin(theta)) > 1e-8 {
			t.Fatalf("imag λ = %v want ±%v", imag(v), math.Sin(theta))
		}
	}
}

func TestNonsymmetricEigenpairResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := mat.NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		vals, vecs := Nonsymmetric(a)
		ac := toComplex(a)
		for j, lam := range vals {
			v := make([]complex128, n)
			for i := 0; i < n; i++ {
				v[i] = vecs.At(i, j)
			}
			av := mat.CMulVec(ac, v)
			var res float64
			for i := 0; i < n; i++ {
				d := av[i] - lam*v[i]
				res += real(d)*real(d) + imag(d)*imag(d)
			}
			if math.Sqrt(res) > 1e-6*(1+a.FrobNorm()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNonsymmetricTraceDeterminantConsistency(t *testing.T) {
	// Sum of eigenvalues equals the trace (a cheap global invariant).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := mat.NewDense(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		vals, _ := Nonsymmetric(a)
		var sum complex128
		for _, v := range vals {
			sum += v
		}
		var tr float64
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
		}
		return math.Abs(real(sum)-tr) < 1e-6*(1+math.Abs(tr)) && math.Abs(imag(sum)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNonsymmetricScalarAndEmpty(t *testing.T) {
	vals, vecs := Nonsymmetric(mat.NewDenseData(1, 1, []float64{-3}))
	if len(vals) != 1 || vals[0] != complex(-3, 0) || vecs.At(0, 0) != 1 {
		t.Fatal("scalar case wrong")
	}
	vals, _ = Nonsymmetric(mat.NewDense(0, 0))
	if len(vals) != 0 {
		t.Fatal("empty case wrong")
	}
}

func TestHessenbergPreservesEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 8
	a := mat.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	h := hessenberg(a.Clone())
	// Structure: zero below the first subdiagonal.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			if h.At(i, j) != 0 {
				t.Fatalf("Hessenberg structure violated at %d,%d", i, j)
			}
		}
	}
	va, _ := Nonsymmetric(a)
	vh := hessenbergQREigenvalues(nil, toComplex(h))
	sortC := func(v []complex128) {
		sort.Slice(v, func(i, j int) bool {
			if real(v[i]) != real(v[j]) {
				return real(v[i]) < real(v[j])
			}
			return imag(v[i]) < imag(v[j])
		})
	}
	sortC(va)
	sortC(vh)
	for i := range va {
		if cmplx.Abs(va[i]-vh[i]) > 1e-6 {
			t.Fatalf("spectra differ: %v vs %v", va, vh)
		}
	}
}

func BenchmarkSymmetric64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randSymmetric(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Symmetric(a)
	}
}

func BenchmarkNonsymmetric32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := mat.NewDense(32, 32)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Nonsymmetric(a)
	}
}
