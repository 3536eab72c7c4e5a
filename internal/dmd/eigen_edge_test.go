package dmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"imrdmd/internal/mat"
)

func TestNonsymmetricJordanBlock(t *testing.T) {
	// A defective matrix: Jordan block with eigenvalue 2 (multiplicity 3).
	// Eigenvalues must still come out right even though the eigenvector
	// basis is deficient.
	a := mat.NewDenseData(3, 3, []float64{
		2, 1, 0,
		0, 2, 1,
		0, 0, 2,
	})
	vals, vecs := eigen(nil, a)
	for _, v := range vals {
		if cmplx.Abs(v-2) > 1e-4 {
			t.Fatalf("Jordan block eigenvalue %v want 2", v)
		}
	}
	// Eigenvectors must be finite unit vectors.
	for j := 0; j < 3; j++ {
		var nrm float64
		for i := 0; i < 3; i++ {
			c := vecs.At(i, j)
			if math.IsNaN(real(c)) || math.IsNaN(imag(c)) {
				t.Fatal("NaN eigenvector component")
			}
			nrm += real(c)*real(c) + imag(c)*imag(c)
		}
		if math.Abs(nrm-1) > 1e-8 {
			t.Fatalf("eigenvector %d not unit norm", j)
		}
	}
}

func TestNonsymmetricRepeatedRealEigenvalues(t *testing.T) {
	// diag(3,3,1) — repeated but non-defective.
	a := mat.DiagOf([]float64{3, 3, 1})
	vals, _ := eigen(nil, a)
	got := []float64{real(vals[0]), real(vals[1]), real(vals[2])}
	sort.Float64s(got)
	want := []float64{1, 3, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8 {
			t.Fatalf("eigenvalues %v want %v", got, want)
		}
	}
}

func TestNonsymmetricNearSingular(t *testing.T) {
	// One eigenvalue very near zero must not destabilize the others.
	a := mat.NewDenseData(3, 3, []float64{
		1e-13, 0, 0,
		0, 5, 1,
		0, 0, 7,
	})
	vals, _ := eigen(nil, a)
	found5, found7 := false, false
	for _, v := range vals {
		if cmplx.Abs(v-5) < 1e-6 {
			found5 = true
		}
		if cmplx.Abs(v-7) < 1e-6 {
			found7 = true
		}
	}
	if !found5 || !found7 {
		t.Fatalf("large eigenvalues lost: %v", vals)
	}
}

func TestNonsymmetricLargeScale(t *testing.T) {
	// Scaling the matrix scales the spectrum (sanity under magnitudes far
	// from 1).
	rng := rand.New(rand.NewSource(1))
	n := 6
	a := mat.NewDense(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	v1, _ := eigen(nil, a)
	v2, _ := eigen(nil, mat.Scale(1e8, a))
	// Conjugate pairs may come out in either order; match each scaled
	// eigenvalue to its nearest counterpart.
	for _, w := range v1 {
		want := 1e8 * w
		best := math.Inf(1)
		for _, g := range v2 {
			if d := cmplx.Abs(g - want); d < best {
				best = d
			}
		}
		if best > 1e-6*(1+cmplx.Abs(want)) {
			t.Fatalf("scaled eigenvalue %v unmatched (closest %g away)", want, best)
		}
	}
}

// TestEigenLargeJordanBlockStaysFinite: on a 40×40 Jordan block every
// floored denominator multiplies the back-substitution by ~1e15, far past
// overflow; the power-of-two rescale must keep each vector finite and of
// unit norm.
func TestEigenLargeJordanBlockStaysFinite(t *testing.T) {
	const n = 40
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2)
		if i+1 < n {
			a.Set(i, i+1, 1)
		}
	}
	_, vecs := eigen(nil, a)
	for j := 0; j < n; j++ {
		var nrm float64
		for i := 0; i < n; i++ {
			c := vecs.At(i, j)
			if cmplx.IsNaN(c) || cmplx.IsInf(c) {
				t.Fatalf("eigenvector %d: component %d = %v", j, i, c)
			}
			nrm += real(c)*real(c) + imag(c)*imag(c)
		}
		if math.Abs(nrm-1) > 1e-8 {
			t.Fatalf("eigenvector %d has norm² %v", j, nrm)
		}
	}
}
