package dmd

import (
	"math"
	"math/cmplx"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// eigen computes the eigenvalues and unit right eigenvectors of the real
// square matrix a (the projected operator Ã, whose spectrum may be
// complex). a is not modified. The route is:
//
//  1. Householder reduction to upper Hessenberg form, a = Q₀·H·Q₀ᵀ
//     (real arithmetic, reflectors accumulated into Q₀).
//  2. Complex single-shift QR iteration with Wilkinson shifts and
//     deflation, which leaves H = Z_qr·T·Z_qrᴴ with T upper triangular,
//     so a = Z·T·Zᴴ with Z = Q₀·Z_qr. The eigenvalues are T's diagonal.
//     The matrices are small (r ≤ 64), so complex arithmetic's constant
//     factor does not matter.
//  3. Eigenvector k by back-substitution on T[0:k+1, 0:k+1] − λ_k·I,
//     mapped back through Z (O(r³) in all).
//
// Each eigenvector has unit 2-norm and its largest component real and
// positive. A defective or repeated eigenvalue still gets a finite unit
// vector (the small-denominator floor below); DMD tolerates the
// near-dependent modes this gives. vectors is borrowed from ws (PutCDense
// it back when done; nil ws allocates).
func eigen(ws *compute.Workspace, a *mat.Dense) (values []complex128, vectors *mat.CDense) {
	if a.R != a.C {
		panic("dmd: eigen requires a square matrix")
	}
	n := a.R
	if n == 0 {
		return nil, mat.GetCDense(ws, 0, 0)
	}
	hbuf := mat.CloneWith(ws, a)
	q0 := mat.GetDense(ws, n, n)
	for i := 0; i < n; i++ {
		q0.Set(i, i, 1)
	}
	h := hessenberg(hbuf, q0)
	t := mat.ComplexWith(ws, h)
	z := mat.ComplexWith(ws, q0)
	mat.PutDense(ws, hbuf)
	mat.PutDense(ws, q0)
	values = schur(ws, t, z)
	vectors = schurVectors(ws, t, z, values)
	mat.PutCDense(ws, t)
	mat.PutCDense(ws, z)
	return values, vectors
}

// hessenberg reduces a (in place) to upper Hessenberg form by Householder
// reflectors and returns it, accumulating the reflectors into q
// (q ← q·P_k), so that an identity q ends as Q₀ with a_in = Q₀·H·Q₀ᵀ.
func hessenberg(a, q *mat.Dense) *mat.Dense {
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
		// A ← A (I − βvvᵀ), and the same on the right of q.
		for _, m := range [2]*mat.Dense{a, q} {
			for i := 0; i < n; i++ {
				var s float64
				for j := k + 1; j < n; j++ {
					s += m.At(i, j) * v[j]
				}
				s *= beta
				for j := k + 1; j < n; j++ {
					m.Set(i, j, m.At(i, j)-s*v[j])
				}
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

// schur runs shifted QR iteration on the complex upper Hessenberg h until
// it deflates to upper triangular T (in place), accumulating every
// rotation into z, and returns T's diagonal as the eigenvalues.
func schur(ws *compute.Workspace, h, z *mat.CDense) []complex128 {
	n := h.R
	values := make([]complex128, n)
	// Rotation buffers shared by every QR step.
	cs := ws.GetC128(n)
	sn := ws.GetC128(n)
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
		qrStep(h, z, hi, shift, cs, sn)
	}
	values[0] = h.At(0, 0)
	ws.PutC128(cs)
	ws.PutC128(sn)
	return values
}

// qrStep performs one explicit single-shift QR step on the active block
// h[0:hi+1, 0:hi+1]: H ← RQ + σI where H−σI = QR. Givens rotations
// preserve the Hessenberg structure. The row rotations also run across
// the columns right of the block, and the column rotations across every
// row of z, so z·h·zᴴ stays equal to the input matrix; neither touches
// the block's own arithmetic, so the eigenvalues do not depend on them.
func qrStep(h, z *mat.CDense, hi int, shift complex128, cs, sn []complex128) {
	m, n := hi+1, h.C
	for i := 0; i < m; i++ {
		h.Set(i, i, h.At(i, i)-shift)
	}
	cs = cs[:m-1]
	sn = sn[:m-1]
	// QR pass: eliminate each subdiagonal entry with a row rotation.
	for k := 0; k < m-1; k++ {
		c, s := givens(h.At(k, k), h.At(k+1, k))
		cs[k], sn[k] = c, s
		rk, rk1 := h.Row(k), h.Row(k+1)
		for j := k; j < n; j++ {
			hkj := rk[j]
			hk1j := rk1[j]
			rk[j] = c*hkj + s*hk1j
			rk1[j] = -cmplx.Conj(s)*hkj + cmplx.Conj(c)*hk1j
		}
	}
	// RQ pass: apply the adjoint rotations on the right.
	for k := 0; k < m-1; k++ {
		c, s := cs[k], sn[k]
		for i := 0; i < min(k+2, m); i++ {
			hik := h.At(i, k)
			hik1 := h.At(i, k+1)
			h.Set(i, k, hik*cmplx.Conj(c)+hik1*cmplx.Conj(s))
			h.Set(i, k+1, -hik*s+hik1*c)
		}
		for i := 0; i < n; i++ {
			row := z.Row(i)
			zik := row[k]
			zik1 := row[k+1]
			row[k] = zik*cmplx.Conj(c) + zik1*cmplx.Conj(s)
			row[k+1] = -zik*s + zik1*c
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

// schurVectors returns the unit right eigenvectors of a = z·t·zᴴ, column
// k for values[k] = t[k,k], following LAPACK's ztrevc: x solves
// (T[0:k, 0:k] − λ_k·I)·x = −T[0:k, k] with x_k = 1 by back-substitution,
// and v = Z[:, 0:k+1]·x.
//
// A denominator T[i,i] − λ_k smaller than smin = max(ulp·|λ_k|, smlnum)
// (|·| the 1-norm of re and im) is replaced by smin, so a repeated or
// defective eigenvalue gives a large but finite component instead of a
// division by zero. When a quotient would exceed bigx, the partial x is
// first scaled down by a power of two, which is exact and so leaves the
// normalized vector's bits alone.
func schurVectors(ws *compute.Workspace, t, z *mat.CDense, values []complex128) *mat.CDense {
	n := t.R
	const (
		ulp    = 0x1p-52
		safmin = 0x1p-1022
		bigx   = 0x1p256
	)
	smlnum := safmin * (float64(n) / ulp)
	vectors := mat.GetCDense(ws, n, n)
	x := ws.GetC128(n)
	v := ws.GetC128(n)
	for k, lam := range values {
		smin := max(ulp*cabs1(lam), smlnum)
		x[k] = 1
		for i := k - 1; i >= 0; i-- {
			row := t.Row(i)
			var s complex128
			for j := i + 1; j <= k; j++ {
				s -= row[j] * x[j]
			}
			d := row[i] - lam
			if cabs1(d) < smin {
				d = complex(smin, 0)
			}
			if as := cabs1(s); as > bigx*cabs1(d) {
				_, e := math.Frexp(bigx * cabs1(d) / as)
				f := complex(math.Ldexp(1, e-1), 0)
				s *= f
				for j := i + 1; j <= k; j++ {
					x[j] *= f
				}
			}
			x[i] = s / d
		}
		for i := 0; i < n; i++ {
			row := z.Row(i)
			var s complex128
			for j := 0; j <= k; j++ {
				s += row[j] * x[j]
			}
			v[i] = s
		}
		normalizeC(v)
		// Fix the phase so the largest component is real positive; makes
		// results reproducible across runs.
		var big complex128
		var bigAbs float64
		for _, c := range v {
			if ab := cmplx.Abs(c); ab > bigAbs {
				big, bigAbs = c, ab
			}
		}
		if bigAbs > 0 {
			phase := big / complex(bigAbs, 0)
			for i := range v {
				v[i] /= phase
			}
		}
		for i := 0; i < n; i++ {
			vectors.Set(i, k, v[i])
		}
	}
	ws.PutC128(x)
	ws.PutC128(v)
	return vectors
}

// cabs1 is |re| + |im|, LAPACK's cheap complex magnitude.
func cabs1(c complex128) float64 { return math.Abs(real(c)) + math.Abs(imag(c)) }

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
