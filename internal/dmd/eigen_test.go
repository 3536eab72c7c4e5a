package dmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"strconv"
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

func TestNonsymmetricRealSpectrum(t *testing.T) {
	// Upper triangular: eigenvalues are the diagonal.
	a := mat.NewDenseData(3, 3, []float64{
		2, 1, 0,
		0, -1, 3,
		0, 0, 0.5,
	})
	vals, _ := eigen(nil, a)
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
	vals, _ := eigen(nil, a)
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
		vals, vecs := eigen(nil, a)
		ac := toComplex(a)
		for j, lam := range vals {
			v := make([]complex128, n)
			for i := 0; i < n; i++ {
				v[i] = vecs.At(i, j)
			}
			av := make([]complex128, n)
			for i := range av {
				for k, x := range ac.Row(i) {
					av[i] += x * v[k]
				}
			}
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
		vals, _ := eigen(nil, a)
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
	vals, vecs := eigen(nil, mat.NewDenseData(1, 1, []float64{-3}))
	if len(vals) != 1 || vals[0] != complex(-3, 0) || vecs.At(0, 0) != 1 {
		t.Fatal("scalar case wrong")
	}
	vals, _ = eigen(nil, mat.NewDense(0, 0))
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
	h := hessenberg(a.Clone(), mat.Eye(n))
	// Structure: zero below the first subdiagonal.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			if h.At(i, j) != 0 {
				t.Fatalf("Hessenberg structure violated at %d,%d", i, j)
			}
		}
	}
	va, _ := eigen(nil, a)
	vh := schur(nil, toComplex(h), mat.NewCDense(n, n))
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

// BenchmarkEigen times the eigensolver on random n×n matrices; with
// O(n³) work the 10 → 32 → 64 steps should cost about ×33 and ×8.
func BenchmarkEigen(b *testing.B) {
	for _, n := range []int{10, 32, 64} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := mat.NewDense(n, n)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
			}
			b.ReportAllocs()
			for b.Loop() {
				eigen(nil, a)
			}
		})
	}
}

// blockEigen is D = diag(blocks) with each 2×2 block ρ·[[cos θ, −sin θ],
// [sin θ, cos θ]] (eigenvalues ρ·e^{±iθ}, eigenvectors (1, ∓i)/√2) and
// each 1×1 block a real eigenvalue with a unit vector. It returns D with
// its eigenvalues and eigenvectors (columns) in closed form.
func blockEigen(rots [][2]float64, reals []float64) (*mat.Dense, []complex128, *mat.CDense) {
	n := 2*len(rots) + len(reals)
	d := mat.NewDense(n, n)
	vecs := mat.NewCDense(n, n)
	vals := make([]complex128, 0, n)
	h := complex(1/math.Sqrt2, 0)
	for k, rt := range rots {
		rho, th := rt[0], rt[1]
		i := 2 * k
		d.Set(i, i, rho*math.Cos(th))
		d.Set(i, i+1, -rho*math.Sin(th))
		d.Set(i+1, i, rho*math.Sin(th))
		d.Set(i+1, i+1, rho*math.Cos(th))
		vals = append(vals, cmplx.Rect(rho, th), cmplx.Rect(rho, -th))
		vecs.Set(i, i, h)
		vecs.Set(i+1, i, -1i*h)
		vecs.Set(i, i+1, h)
		vecs.Set(i+1, i+1, 1i*h)
	}
	for k, x := range reals {
		i := 2*len(rots) + k
		d.Set(i, i, x)
		vals = append(vals, complex(x, 0))
		vecs.Set(i, i, 1)
	}
	return d, vals, vecs
}

// checkClosedForm matches every computed pair of a to its closed-form
// counterpart (nearest eigenvalue): λ within 1e-14·‖A‖_F, the vector
// within vecTol of the expected one (max norm, up to a unit phase), and
// ‖A·v − λ·v‖ ≤ 1e-13·‖A‖_F.
func checkClosedForm(t *testing.T, a *mat.Dense, wantVals []complex128, wantVecs *mat.CDense, vecTol func(j int) float64) ([]complex128, *mat.CDense) {
	t.Helper()
	vals, vecs := eigen(nil, a)
	anorm := a.FrobNorm()
	used := make([]bool, len(wantVals))
	for j, lam := range vals {
		best, bestD := -1, math.Inf(1)
		for k, w := range wantVals {
			if d := cmplx.Abs(lam - w); !used[k] && d < bestD {
				best, bestD = k, d
			}
		}
		used[best] = true
		if bestD > 1e-14*anorm {
			t.Fatalf("λ %v is %.3g from its closed form %v", lam, bestD, wantVals[best])
		}
		var dot complex128
		for i := 0; i < a.R; i++ {
			dot += cmplx.Conj(wantVecs.At(i, best)) * vecs.At(i, j)
		}
		var gap float64
		for i := 0; i < a.R; i++ {
			gap = max(gap, cmplx.Abs(vecs.At(i, j)-dot/complex(cmplx.Abs(dot), 0)*wantVecs.At(i, best)))
		}
		if gap > vecTol(best) {
			t.Fatalf("eigenvector for λ %v is %.3g from its closed form", lam, gap)
		}
		if res := residual(a, lam, vecs, j); res > 1e-13*anorm {
			t.Fatalf("‖A·v − λ·v‖ = %.3g for λ %v, ‖A‖_F = %.3g", res, lam, anorm)
		}
	}
	return vals, vecs
}

func TestEigenBlockRotations(t *testing.T) {
	a, vals, vecs := blockEigen(
		[][2]float64{{0.99, 0.05}, {0.9, 1.3}, {1.02, 2.9}, {0.5, 0.7}},
		[]float64{0.97, -0.3},
	)
	checkClosedForm(t, a, vals, vecs, func(int) float64 { return 1e-13 })
}

// TestEigenOrthogonalSimilarity diagonalizes A = S·D·Sᵀ with S orthogonal
// (two Householder reflectors) and D block-diagonal with complex pairs, so
// A's eigenvectors are S times D's. Two real eigenvalues sit 1e-8 apart:
// A is normal, so their vectors are determined to about u·‖A‖/1e-8, and
// they must come out orthogonal to that accuracy (|⟨v₁, v₂⟩| was 5e-8
// when this test was written).
func TestEigenOrthogonalSimilarity(t *testing.T) {
	const near = 0.8
	d, dVals, dVecs := blockEigen(
		[][2]float64{{0.98, 0.2}, {0.95, 0.21}, {0.7, 2.5}},
		[]float64{near, near + 1e-8, -0.6, 0.1},
	)
	n := d.R
	s := mat.Eye(n)
	rng := rand.New(rand.NewSource(3))
	for range 2 {
		w := make([]float64, n)
		var ww float64
		for i := range w {
			w[i] = rng.NormFloat64()
			ww += w[i] * w[i]
		}
		h := mat.Eye(n)
		for i := range n {
			for j := range n {
				h.Set(i, j, h.At(i, j)-2*w[i]*w[j]/ww)
			}
		}
		s = mat.Mul(s, h)
	}
	a := mat.Mul(mat.Mul(s, d), s.T())
	wantVecs := mat.NewCDense(n, n)
	for i := range n {
		for j := range n {
			var x complex128
			for k := range n {
				x += complex(s.At(i, k), 0) * dVecs.At(k, j)
			}
			wantVecs.Set(i, j, x)
		}
	}
	vals, vecs := checkClosedForm(t, a, dVals, wantVecs, func(j int) float64 {
		if real(dVals[j]) == near || real(dVals[j]) == near+1e-8 {
			return 1e-6
		}
		return 1e-12
	})
	// The two near-repeated eigenvectors are independent. The pair is
	// picked by its closed-form values, which checkClosedForm has held
	// every λ to within 1e-14·‖A‖_F, imaginary part included: the complex
	// QR owes no exactly real eigenvalues, and on the FMA tiers this pair
	// comes out with imaginary parts of ±3.2e-24.
	var pair []int
	for _, w := range []complex128{near, near + 1e-8} {
		best := 0
		for j, lam := range vals {
			if cmplx.Abs(lam-w) < cmplx.Abs(vals[best]-w) {
				best = j
			}
		}
		pair = append(pair, best)
	}
	var dot complex128
	for i := range n {
		dot += cmplx.Conj(vecs.At(i, pair[0])) * vecs.At(i, pair[1])
	}
	if cmplx.Abs(dot) > 1e-6 {
		t.Fatalf("near-repeated eigenvectors overlap: |⟨v₁, v₂⟩| = %.3g", cmplx.Abs(dot))
	}
}
