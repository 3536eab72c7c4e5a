package dmd

import (
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"imrdmd/internal/joblog"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
	"imrdmd/internal/telemetry"
)

// refEigen is the eigensolver as it ran before the eigenvectors came from
// the Schur form: the complex shifted QR found the eigenvalues only (its
// rotations never left the active block), and inverse iteration found
// each eigenvector, one LU of A − λ̃I per eigenvalue with λ̃ = λ plus
// (1+i)·1e-10·‖A‖_F, four solves from an xorshift start vector. It is the
// reference eigen is held to.
func refEigen(a *mat.Dense) ([]complex128, *mat.CDense) {
	n := a.R
	h := refHessenberg(a.Clone())
	ch := mat.NewCDense(n, n)
	for i, x := range h.Data {
		ch.Data[i] = complex(x, 0)
	}
	values := refQREigenvalues(ch)
	return values, refInverseIteration(a, values)
}

// refHessenberg is hessenberg without the accumulation of Q₀.
func refHessenberg(a *mat.Dense) *mat.Dense {
	n := a.R
	v := make([]float64, n)
	for k := 0; k < n-2; k++ {
		var alpha float64
		for i := k + 1; i < n; i++ {
			alpha += a.At(i, k) * a.At(i, k)
		}
		alpha = math.Sqrt(alpha)
		if alpha == 0 {
			continue
		}
		if a.At(k+1, k) > 0 {
			alpha = -alpha
		}
		var vnorm float64
		for i := k + 1; i < n; i++ {
			v[i] = a.At(i, k)
			if i == k+1 {
				v[i] -= alpha
			}
			vnorm += v[i] * v[i]
		}
		if vnorm == 0 {
			continue
		}
		beta := 2 / vnorm
		for j := k; j < n; j++ {
			var s float64
			for i := k + 1; i < n; i++ {
				s += v[i] * a.At(i, j)
			}
			s *= beta
			for i := k + 1; i < n; i++ {
				a.Set(i, j, a.At(i, j)-s*v[i])
			}
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := k + 1; j < n; j++ {
				s += a.At(i, j) * v[j]
			}
			s *= beta
			for j := k + 1; j < n; j++ {
				a.Set(i, j, a.At(i, j)-s*v[j])
			}
		}
	}
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			a.Set(i, j, 0)
		}
	}
	return a
}

// refQREigenvalues is schur without the rotations outside the active
// block and without z.
func refQREigenvalues(h *mat.CDense) []complex128 {
	n := h.R
	values := make([]complex128, n)
	cs := make([]complex128, n)
	sn := make([]complex128, n)
	hi := n - 1
	iterSinceDeflate := 0
	const maxIterPerEig = 60
	for hi > 0 {
		deflated := false
		for k := hi; k >= 1; k-- {
			sub := cmplx.Abs(h.At(k, k-1))
			scale := cmplx.Abs(h.At(k-1, k-1)) + cmplx.Abs(h.At(k, k))
			if scale == 0 {
				scale = 1
			}
			if sub <= 1e-15*scale {
				h.Set(k, k-1, 0)
				if k == hi {
					values[hi] = h.At(hi, hi)
					hi--
					iterSinceDeflate = 0
					deflated = true
					break
				}
			}
		}
		if deflated {
			continue
		}
		if hi == 0 {
			break
		}
		var shift complex128
		a := h.At(hi-1, hi-1)
		b := h.At(hi-1, hi)
		c := h.At(hi, hi-1)
		d := h.At(hi, hi)
		tr := a + d
		det := a*d - b*c
		disc := cmplx.Sqrt(tr*tr - 4*det)
		l1 := (tr + disc) / 2
		l2 := (tr - disc) / 2
		if cmplx.Abs(l1-d) < cmplx.Abs(l2-d) {
			shift = l1
		} else {
			shift = l2
		}
		iterSinceDeflate++
		if iterSinceDeflate%20 == 0 {
			shift = complex(cmplx.Abs(h.At(hi, hi-1))+cmplx.Abs(d), 0)
		}
		if iterSinceDeflate > maxIterPerEig {
			values[hi] = h.At(hi, hi)
			hi--
			iterSinceDeflate = 0
			continue
		}
		m := hi + 1
		for i := 0; i < m; i++ {
			h.Set(i, i, h.At(i, i)-shift)
		}
		for k := 0; k < m-1; k++ {
			c, s := givens(h.At(k, k), h.At(k+1, k))
			cs[k], sn[k] = c, s
			for j := k; j < m; j++ {
				hkj := h.At(k, j)
				hk1j := h.At(k+1, j)
				h.Set(k, j, c*hkj+s*hk1j)
				h.Set(k+1, j, -cmplx.Conj(s)*hkj+cmplx.Conj(c)*hk1j)
			}
		}
		for k := 0; k < m-1; k++ {
			c, s := cs[k], sn[k]
			maxRow := min(k+2, m)
			for i := 0; i < maxRow; i++ {
				hik := h.At(i, k)
				hik1 := h.At(i, k+1)
				h.Set(i, k, hik*cmplx.Conj(c)+hik1*cmplx.Conj(s))
				h.Set(i, k+1, -hik*s+hik1*c)
			}
		}
		for i := 0; i < m; i++ {
			h.Set(i, i, h.At(i, i)+shift)
		}
	}
	values[0] = h.At(0, 0)
	return values
}

// refInverseIteration is the deleted inverseIterationVectors.
func refInverseIteration(a *mat.Dense, values []complex128) *mat.CDense {
	n := a.R
	vectors := mat.NewCDense(n, len(values))
	anorm := a.FrobNorm()
	if anorm == 0 {
		anorm = 1
	}
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(int64(seed)) / float64(1<<63)
	}
	v := make([]complex128, n)
	for j, lam := range values {
		eps := complex(1e-10*anorm, 1e-10*anorm)
		shifted := mat.NewCDense(n, n)
		for i, x := range a.Data {
			shifted.Data[i] = complex(x, 0)
		}
		for i := 0; i < n; i++ {
			shifted.Set(i, i, shifted.At(i, i)-(lam+eps))
		}
		lu := mat.CLUFactorInPlace(shifted)
		for i := range v {
			v[i] = complex(next(), next())
		}
		normalizeC(v)
		for iter := 0; iter < 4; iter++ {
			v = lu.Solve(v)
			normalizeC(v)
		}
		var big complex128
		var bigAbs float64
		for _, x := range v {
			if ab := cmplx.Abs(x); ab > bigAbs {
				big, bigAbs = x, ab
			}
		}
		if bigAbs > 0 {
			phase := big / complex(bigAbs, 0)
			for i := range v {
				v[i] /= phase
			}
		}
		for i := 0; i < n; i++ {
			vectors.Set(i, j, v[i])
		}
	}
	return vectors
}

// vectorGap is max_i |got_i − c·want_i| over the column j of both, with
// c the unit phase that best aligns want to got (a tie for the largest
// component may pick a different phase).
func vectorGap(got, want *mat.CDense, j int) float64 {
	var dot complex128
	for i := 0; i < got.R; i++ {
		dot += cmplx.Conj(want.At(i, j)) * got.At(i, j)
	}
	c := complex(1, 0)
	if a := cmplx.Abs(dot); a > 0 {
		c = dot / complex(a, 0)
	}
	var gap float64
	for i := 0; i < got.R; i++ {
		gap = max(gap, cmplx.Abs(got.At(i, j)-c*want.At(i, j)))
	}
	return gap
}

// residual is ‖a·v − λ·v‖₂ for column j of vecs.
func residual(a *mat.Dense, lam complex128, vecs *mat.CDense, j int) float64 {
	var res float64
	for i := 0; i < a.R; i++ {
		var s complex128
		for k, x := range a.Row(i) {
			s += complex(x, 0) * vecs.At(k, j)
		}
		d := s - lam*vecs.At(i, j)
		res += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(res)
}

// sclogWindowOperators returns Ã = Uᵀ·Y·V·Σ⁻¹ of SC-Log windows (Theta
// environment temperatures with a simulated job schedule), as the window
// and level-1 fits form it from the SVD of X.
func sclogWindowOperators(t *testing.T) map[string]*mat.Dense {
	t.Helper()
	out := map[string]*mat.Dense{}
	for _, sh := range []struct{ p, cols int }{{200, 12}, {200, 23}, {200, 40}, {48, 20}, {48, 64}} {
		prof := telemetry.ThetaEnv()
		horizon := float64(4*sh.cols) * prof.SampleInterval
		gen := telemetry.NewGenerator(prof, sh.p, int64(sh.p+sh.cols))
		gen.Schedule = joblog.Simulate(joblog.SimConfig{
			NumNodes: sh.p, Horizon: horizon, Seed: int64(sh.p + sh.cols),
			MeanInterarrival: horizon / 60, MeanDuration: horizon / 5,
		})
		data := gen.Matrix(0, 4*sh.cols)
		for w := 0; w < 4; w++ {
			win := mat.ColsView(data, w*sh.cols, (w+1)*sh.cols)
			s := svd.Compute(mat.ColsView(win, 0, sh.cols-1))
			r := s.Rank()
			if r < 2 {
				continue
			}
			u, v := mat.ColsView(s.U, 0, r), mat.ColsView(s.V, 0, r)
			b := mat.Mul(mat.ColsView(win, 1, sh.cols), v)
			for i := 0; i < b.R; i++ {
				for j := range r {
					b.Set(i, j, b.At(i, j)/s.S[j])
				}
			}
			out[fmt.Sprintf("sclog/p%d/t%d/w%d/r%d", sh.p, sh.cols, w, r)] = mat.MulT(u, b)
		}
	}
	return out
}

// TestEigenMatchesInverseIteration holds eigen to the deleted route:
// eigenvalues bit for bit (the QR arithmetic of the active block is
// unchanged), eigenvectors within 1e-10, and every pair's residual
// ‖A·v − λ·v‖ within 1e-13·‖A‖_F.
func TestEigenMatchesInverseIteration(t *testing.T) {
	cases := sclogWindowOperators(t)
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{2, 5, 10, 20, 32, 64} {
		for k := 0; k < 3; k++ {
			a := mat.NewDense(n, n)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
			}
			cases[fmt.Sprintf("random/n%d/%d", n, k)] = a
		}
	}
	var worstVec, worstRes float64
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		a := cases[name]
		vals, vecs := eigen(nil, a)
		want, wantVecs := refEigen(a)
		anorm := a.FrobNorm()
		for j := range vals {
			if vals[j] != want[j] {
				t.Fatalf("%s: λ[%d] = %v, want %v bit for bit", name, j, vals[j], want[j])
			}
			if gap := vectorGap(vecs, wantVecs, j); gap > 1e-10 {
				t.Fatalf("%s: eigenvector %d differs from inverse iteration by %.3g", name, j, gap)
			} else {
				worstVec = max(worstVec, gap)
			}
			if res := residual(a, vals[j], vecs, j) / anorm; res > 1e-13 {
				t.Fatalf("%s: ‖A·v − λ·v‖ = %.3g·‖A‖_F for pair %d", name, res, j)
			} else {
				worstRes = max(worstRes, res)
			}
		}
	}
	t.Logf("%d matrices: worst eigenvector gap %.3g, worst residual %.3g·‖A‖_F", len(cases), worstVec, worstRes)
}
