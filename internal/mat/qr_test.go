package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// qrShapes are the thin-QR shapes the streaming pipeline factors: window
// SVD preconditioning at Theta's P=4392 and the P=200/P=48 workloads'
// windows and Brand residual blocks.
var qrShapes = []struct{ m, n int }{
	{4392, 39}, {4392, 20}, {4392, 8},
	{200, 39}, {200, 20}, {200, 8},
	{48, 20}, {48, 8}, {48, 4},
}

// conditioned returns U·diag(s)·Vᵀ (m×n) with orthonormal U and V from
// MGS2 on Gaussian matrices and singular values spaced geometrically from
// 1 down to 1/kappa.
func conditioned(rng *rand.Rand, m, n int, kappa float64) *Dense {
	u := qrMGS2(nil, randDense(rng, m, n)).Q
	v := qrMGS2(nil, randDense(rng, n, n)).Q
	for j := 0; j < n; j++ {
		s := 1.0
		if n > 1 {
			s = math.Pow(kappa, -float64(j)/float64(n-1))
		}
		colScale(u, j, s)
	}
	return Mul(u, v.T())
}

// checkQR asserts the factorization contract on qr = QR(a): finite
// factors, R upper triangular with exact zeros below the diagonal,
// ‖A − QR‖_F/‖A‖_F ≤ tol, and (when orth) max|QᵀQ − I| ≤ tol.
func checkQR(t *testing.T, name string, a *Dense, qr *QR, orth bool, tol float64) {
	t.Helper()
	m, n := a.R, a.C
	if qr.Q.R != m || qr.Q.C != n || qr.R.R != n || qr.R.C != n {
		t.Fatalf("%s: Q %d×%d, R %d×%d for a %d×%d input", name, qr.Q.R, qr.Q.C, qr.R.R, qr.R.C, m, n)
	}
	if qr.Q.HasNaN() || qr.R.HasNaN() {
		t.Fatalf("%s: non-finite factor", name)
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := qr.R.At(i, j); v != 0 {
				t.Fatalf("%s: R(%d,%d) = %v below the diagonal", name, i, j, v)
			}
		}
	}
	if an := a.FrobNorm(); an > 0 {
		if rel := Sub(Mul(qr.Q, qr.R), a.Clone()).FrobNorm() / an; rel > tol {
			t.Fatalf("%s: ‖A − QR‖_F/‖A‖_F = %.3g > %.0g", name, rel, tol)
		}
	}
	if !orth {
		return
	}
	qtq := MulT(qr.Q, qr.Q)
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := qtq.At(i, j)
			if i == j {
				d--
			}
			worst = math.Max(worst, math.Abs(d))
		}
	}
	if worst > tol {
		t.Fatalf("%s: max|QᵀQ − I| = %.3g > %.0g", name, worst, tol)
	}
}

// TestQRGroundTruth checks QRFactor against the factorization contract at
// every workload shape and at condition numbers up to 1e14, where
// CholeskyQR2 needs its shifted first pass.
func TestQRGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, c := range qrShapes {
		for _, kappa := range []float64{1, 1e4, 1e8, 1e12, 1e14} {
			name := fmt.Sprintf("%dx%d κ=%.0e", c.m, c.n, kappa)
			a := conditioned(rng, c.m, c.n, kappa)
			checkQR(t, name, a, QRFactor(a), true, 1e-13)
		}
	}
}

// TestCholQRHandlesFullRank pins that full-rank inputs up to κ = 1e12
// stay on CholeskyQR (plain or shifted) rather than reaching the MGS2
// fallback, at every workload shape CholeskyQR serves. The shift grows
// with m·n, so at 4392×39 a κ = 1e14 input is past the shifted pass's
// range and is factored by MGS2 (TestQRGroundTruth covers it).
func TestCholQRHandlesFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, c := range qrShapes {
		if c.n <= qrMGS2MaxCols {
			continue
		}
		for _, kappa := range []float64{1, 1e8, 1e12} {
			a := conditioned(rng, c.m, c.n, kappa)
			qr := cholQR(nil, nil, a)
			if qr == nil {
				t.Fatalf("%dx%d κ=%.0e fell back to MGS2", c.m, c.n, kappa)
			}
			checkQR(t, fmt.Sprintf("cholQR %dx%d κ=%.0e", c.m, c.n, kappa), a, qr, true, 1e-13)
		}
	}
}

// TestQRRankDeficient covers exactly rank-deficient inputs: a window with
// its row means removed (its columns sum to zero) and a duplicated column.
// Q need not be orthonormal in the null directions, but the factors must
// be finite and reproduce A.
func TestQRRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, c := range qrShapes {
		centred := randDense(rng, c.m, c.n)
		for i := 0; i < c.m; i++ {
			row := centred.Row(i)
			var mean float64
			for _, v := range row {
				mean += v
			}
			mean /= float64(c.n)
			for j := range row {
				row[j] -= mean
			}
		}
		checkQR(t, fmt.Sprintf("%dx%d row means removed", c.m, c.n), centred, QRFactor(centred), false, 1e-13)

		dup := randDense(rng, c.m, c.n)
		for i := 0; i < c.m; i++ {
			dup.Set(i, c.n-1, dup.At(i, 0))
		}
		checkQR(t, fmt.Sprintf("%dx%d duplicated column", c.m, c.n), dup, QRFactor(dup), false, 1e-13)
	}
}

// TestQRZeroAndDegenerate covers the all-zero input (Q·R = 0 and R = 0)
// and the n = 0 and n = 1 edges.
func TestQRZeroAndDegenerate(t *testing.T) {
	for _, c := range []struct{ m, n int }{{4392, 39}, {200, 8}, {48, 4}, {5, 1}} {
		qr := QRFactor(NewDense(c.m, c.n))
		if qr.Q.HasNaN() || qr.R.HasNaN() {
			t.Fatalf("%dx%d zero input: non-finite factor", c.m, c.n)
		}
		for i, v := range qr.R.Data {
			if v != 0 {
				t.Fatalf("%dx%d zero input: R element %d = %v", c.m, c.n, i, v)
			}
		}
		if d := Mul(qr.Q, qr.R).MaxAbs(); d != 0 {
			t.Fatalf("%dx%d zero input: max|QR| = %v", c.m, c.n, d)
		}
	}
	for _, m := range []int{0, 7} {
		qr := QRFactor(NewDense(m, 0))
		if qr.Q.R != m || qr.Q.C != 0 || qr.R.R != 0 || qr.R.C != 0 {
			t.Fatalf("%dx0: Q %d×%d, R %d×%d", m, qr.Q.R, qr.Q.C, qr.R.R, qr.R.C)
		}
	}
	rng := rand.New(rand.NewSource(89))
	for _, m := range []int{1, 9, 4392} {
		a := randDense(rng, m, 1)
		qr := QRFactor(a)
		checkQR(t, fmt.Sprintf("%dx1", m), a, qr, true, 1e-14)
		if qr.R.Data[0] <= 0 {
			t.Fatalf("%dx1: R = %v, want the column norm", m, qr.R.Data[0])
		}
	}
}

// TestQRSmallStridedInput feeds QRFactorOn a column view, as the
// streaming pipeline does, and checks the factors match the packed
// clone's bit for bit, on the MGS2 shape class and on CholeskyQR.
func TestQRSmallStridedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, m := range []int{100, 600} {
		parent := randDense(rng, m, 40)
		v := ColsView(parent, 5, 13) // m×8 at stride 40
		got := QRFactorOn(nil, nil, v)
		want := QRFactorOn(nil, nil, v.Clone())
		assertIdentical(t, fmt.Sprintf("%dx8 strided Q", m), want.Q, got.Q)
		assertIdentical(t, fmt.Sprintf("%dx8 strided R", m), want.R, got.R)
	}
}

// TestQREngineMatchesSerial pins that routing the Gram and multiply GEMMs
// through a multi-worker engine leaves the factors bit-identical.
func TestQREngineMatchesSerial(t *testing.T) {
	e := compute.NewEngine(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(101))
	for _, kappa := range []float64{1, 1e12} {
		a := conditioned(rng, 4392, 39, kappa)
		want := QRFactorOn(nil, nil, a)
		got := QRFactorOn(e, nil, a)
		assertIdentical(t, "engine Q", want.Q, got.Q)
		assertIdentical(t, "engine R", want.R, got.R)
	}
}

// TestCholeskyGramWith: on conditioned inputs at the subtree shapes
// (one a column view), R is upper triangular with exact zeros below the
// diagonal, RᵀR reproduces aᵀa, R·R⁻¹ = I, and Q = a·R⁻¹ is orthonormal
// to about u·κ². A zero column and a NaN entry return nils; a
// duplicated column returns nils or an R with a vanishing pivot
// (max|R|·max|R⁻¹| > 1e10), depending on the last bit of its pivot.
func TestCholeskyGramWith(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ws := compute.NewWorkspace()
	for _, c := range []struct {
		m, n  int
		kappa float64
	}{{4392, 40, 1e2}, {200, 40, 1e3}, {96, 40, 10}, {48, 8, 1e2}} {
		name := fmt.Sprintf("%dx%d κ=%g", c.m, c.n, c.kappa)
		wide := conditioned(rng, c.m, c.n+3, c.kappa)
		a := ColsView(wide, 1, c.n+1)
		r, rinv := CholeskyGramWith(nil, ws, a)
		if r == nil {
			t.Fatalf("%s: factorization broke down", name)
		}
		for i := 0; i < c.n; i++ {
			for j := 0; j < i; j++ {
				if r.At(i, j) != 0 || rinv.At(i, j) != 0 {
					t.Fatalf("%s: nonzero below the diagonal at (%d,%d)", name, i, j)
				}
			}
		}
		g := Gram(a, true)
		if d := Sub(MulT(r, r), g).MaxAbs() / g.MaxAbs(); d > 1e-14 {
			t.Fatalf("%s: max|RᵀR − aᵀa|/max|aᵀa| = %g", name, d)
		}
		if d := Sub(Mul(r, rinv), Eye(c.n)).MaxAbs(); d > 1e-12*c.kappa {
			t.Fatalf("%s: max|R·R⁻¹ − I| = %g", name, d)
		}
		q := Mul(a, rinv)
		if d := Sub(MulT(q, q), Eye(c.n)).MaxAbs(); d > 1e-14*c.kappa*c.kappa {
			t.Fatalf("%s: max|QᵀQ − I| = %g", name, d)
		}
		PutDense(ws, r)
		PutDense(ws, rinv)
	}
	base := randDense(rng, 200, 10)
	zero, dup, nan := base.Clone(), base.Clone(), base.Clone()
	for i := 0; i < base.R; i++ {
		zero.Set(i, 3, 0)
		dup.Set(i, 6, dup.At(i, 5))
	}
	nan.Set(17, 2, math.NaN())
	for name, a := range map[string]*Dense{"zero column": zero, "NaN entry": nan} {
		if r, rinv := CholeskyGramWith(nil, ws, a); r != nil || rinv != nil {
			t.Fatalf("%s: got factors, want nils", name)
		}
	}
	if r, rinv := CholeskyGramWith(nil, ws, dup); r != nil {
		if k := r.MaxAbs() * rinv.MaxAbs(); !(k > 1e10) {
			t.Fatalf("duplicated column: factors with max|R|·max|R⁻¹| = %g", k)
		}
	}
}
