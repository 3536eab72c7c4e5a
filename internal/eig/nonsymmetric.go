// Package eig provides the eigendecomposition the DMD layer needs: a
// complex shifted-QR solver with inverse iteration for small nonsymmetric
// matrices, used to diagonalize the DMD-projected operator Ã.
package eig

import (
	"math"
	"math/cmplx"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// Nonsymmetric computes eigenvalues and (right) eigenvectors of a real
// square matrix with possibly complex spectrum, as DMD's projected
// operator Ã has. The route is:
//
//  1. Householder reduction to upper Hessenberg form (real arithmetic).
//  2. Complex single-shift QR iteration with Wilkinson shifts and
//     deflation for the eigenvalues. Working in complex arithmetic
//     sidesteps the double-shift bulge-chasing machinery; the matrices
//     here are small (r×r with r ≲ 100), so the 4× arithmetic cost of
//     complex ops is irrelevant.
//  3. Inverse iteration on the original matrix for each eigenvector.
//
// Eigenvectors are normalized to unit 2-norm. For repeated eigenvalues
// inverse iteration may return linearly dependent vectors; DMD tolerates
// this (the corresponding modes coincide physically).
func Nonsymmetric(a *mat.Dense) (values []complex128, vectors *mat.CDense) {
	return NonsymmetricWith(nil, a)
}

// NonsymmetricWith is Nonsymmetric with all internal scratch — the
// Hessenberg reduction, QR rotation buffers, shifted systems and inverse
// iteration vectors — borrowed from ws, and the returned eigenvector
// matrix borrowed from ws as well (PutCDense it back when done; with nil
// ws everything is plainly allocated and owned).
func NonsymmetricWith(ws *compute.Workspace, a *mat.Dense) (values []complex128, vectors *mat.CDense) {
	if a.R != a.C {
		panic("eig: Nonsymmetric requires a square matrix")
	}
	n := a.R
	if n == 0 {
		return nil, mat.GetCDense(ws, 0, 0)
	}
	if n == 1 {
		v := mat.GetCDense(ws, 1, 1)
		v.Set(0, 0, 1)
		return []complex128{complex(a.At(0, 0), 0)}, v
	}
	hbuf := mat.CloneWith(ws, a)
	h := hessenberg(hbuf)
	ch := mat.ComplexWith(ws, h)
	mat.PutDense(ws, hbuf)
	values = hessenbergQREigenvalues(ws, ch)
	mat.PutCDense(ws, ch)
	vectors = inverseIterationVectors(ws, a, values)
	return values, vectors
}

// hessenberg reduces a (in place) to upper Hessenberg form by Householder
// reflectors and returns it. Similarity transforms preserve eigenvalues.
func hessenberg(a *mat.Dense) *mat.Dense {
	n := a.R
	v := make([]float64, n)
	for k := 0; k < n-2; k++ {
		// Build the reflector that zeroes a[k+2:, k].
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
		// A ← (I − βvvᵀ) A
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
		// A ← A (I − βvvᵀ)
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
	// Zero out the (numerically tiny) entries below the subdiagonal.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			a.Set(i, j, 0)
		}
	}
	return a
}

// hessenbergQREigenvalues runs shifted QR iteration on a complex upper
// Hessenberg matrix until it deflates to triangular, returning the
// diagonal as the eigenvalues.
func hessenbergQREigenvalues(ws *compute.Workspace, h *mat.CDense) []complex128 {
	n := h.R
	values := make([]complex128, n)
	// Rotation buffers shared by every QR step.
	cs := ws.GetC128(n)
	sn := ws.GetC128(n)
	defer func() {
		ws.PutC128(cs)
		ws.PutC128(sn)
	}()
	hi := n - 1 // active block is h[0:hi+1, 0:hi+1]
	iterSinceDeflate := 0
	const maxIterPerEig = 60
	for hi > 0 {
		// Deflation check: tiny subdiagonal?
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
		// Wilkinson shift from the trailing 2×2 of the active block.
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
			// Exceptional shift to break symmetric stalls.
			shift = complex(cmplx.Abs(h.At(hi, hi-1))+cmplx.Abs(d), 0)
		}
		if iterSinceDeflate > maxIterPerEig {
			// Accept the current diagonal entry; for the well-behaved
			// DMD matrices this path is never hit, but it guarantees
			// termination on adversarial input.
			values[hi] = h.At(hi, hi)
			hi--
			iterSinceDeflate = 0
			continue
		}
		qrStepHessenberg(h, hi, shift, cs, sn)
	}
	values[0] = h.At(0, 0)
	return values
}

// qrStepHessenberg performs one explicit single-shift QR step
// H ← RQ + σI where H−σI = QR, restricted to the active (hi+1)-block.
// Givens rotations preserve the Hessenberg structure. Only the active
// block is touched; columns right of it belong to already-deflated
// eigenvalues and do not influence the remaining spectrum.
func qrStepHessenberg(h *mat.CDense, hi int, shift complex128, cs, sn []complex128) {
	m := hi + 1
	for i := 0; i < m; i++ {
		h.Set(i, i, h.At(i, i)-shift)
	}
	cs = cs[:m-1]
	sn = sn[:m-1]
	// QR pass: eliminate each subdiagonal entry with a row rotation.
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
	// RQ pass: apply the adjoint rotations on the right.
	for k := 0; k < m-1; k++ {
		c, s := cs[k], sn[k]
		maxRow := k + 2
		if maxRow > m {
			maxRow = m
		}
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

// givens returns c (real-ish) and s with |c|²+|s|²=1 such that
// [c s; -conj(s) conj(c)] [x; y] = [r; 0].
func givens(x, y complex128) (c, s complex128) {
	ax, ay := cmplx.Abs(x), cmplx.Abs(y)
	if ay == 0 {
		return 1, 0
	}
	if ax == 0 {
		return 0, 1
	}
	r := math.Hypot(ax, ay)
	c = complex(ax/r, 0)
	// s = (x/|x|) * conj(y)/r
	s = (x / complex(ax, 0)) * cmplx.Conj(y) / complex(r, 0)
	return c, s
}

// inverseIterationVectors computes a right eigenvector for each eigenvalue
// by inverse iteration with a complex LU solve on (A − λ̃I), where λ̃ is
// the eigenvalue perturbed slightly off the exact value for stability.
func inverseIterationVectors(ws *compute.Workspace, a *mat.Dense, values []complex128) *mat.CDense {
	n := a.R
	vectors := mat.GetCDense(ws, n, len(values))
	anorm := a.FrobNorm()
	if anorm == 0 {
		anorm = 1
	}
	// Template copy of A and a reusable shifted system: each eigenvalue
	// re-fills `shifted` and factors it in place, so the whole sweep
	// touches only these buffers.
	ca := mat.ComplexWith(ws, a)
	shifted := mat.GetCDense(ws, n, n)
	v := ws.GetC128(n)
	w := ws.GetC128(n)
	// Deterministic start vectors via a tiny xorshift PRNG — same
	// reproducibility as the previous seeded source, no allocation.
	seed := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return float64(int64(seed)) / float64(1<<63)
	}
	var lu mat.CLU // pivot storage reused across all eigenvalues
	for j, lam := range values {
		eps := complex(1e-10*anorm, 1e-10*anorm)
		copy(shifted.Data, ca.Data)
		for i := 0; i < n; i++ {
			shifted.Set(i, i, shifted.At(i, i)-(lam+eps))
		}
		lu.FactorInPlace(shifted)
		for i := range v {
			v[i] = complex(next(), next())
		}
		normalizeC(v)
		for iter := 0; iter < 4; iter++ {
			lu.SolveInto(w, v)
			v, w = w, v
			normalizeC(v)
		}
		// Fix the phase so the largest component is real positive; makes
		// results reproducible across runs.
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
	ws.PutC128(v)
	ws.PutC128(w)
	mat.PutCDense(ws, shifted)
	mat.PutCDense(ws, ca)
	return vectors
}

func normalizeC(v []complex128) {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	s = math.Sqrt(s)
	if s == 0 {
		return
	}
	inv := complex(1/s, 0)
	for i := range v {
		v[i] *= inv
	}
}
