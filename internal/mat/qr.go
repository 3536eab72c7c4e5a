package mat

import (
	"math"

	"imrdmd/internal/compute"
)

// QR holds a thin (economy) QR factorization A = Q R with Q m×n
// column-orthonormal and R n×n upper triangular, for m ≥ n.
type QR struct {
	Q *Dense
	R *Dense
}

// QRFactor computes the thin QR factorization of a (m×n, m ≥ n) by
// CholeskyQR2: R comes from a Cholesky factorization of the Gram matrix
// AᵀA and Q = A·R⁻¹, run twice so the second pass repairs the first's
// loss of orthogonality. Both Grams and both multiplies go through the
// GEMM kernels; an ill-conditioned input gets a shifted first pass, and
// small shapes and exactly rank-deficient or zero inputs use column MGS2
// (see QRFactorOn). Q stays explicit, which the incremental-SVD layer
// needs.
func QRFactor(a *Dense) *QR {
	return QRFactorOn(compute.Default(), nil, a)
}

// QRFactorOn is QRFactor with Q and R borrowed from ws (nil ws
// allocates; return both factors with PutDense or qr.Release when the
// factorization is no longer needed) and the Gram and multiply GEMMs
// routed through engine e (nil e runs them serially). The Cholesky factorizations
// and triangular inverses are n×n and run serially, so engine and serial
// runs agree bit for bit.
//
// The routine is CholeskyQR2 with the acceptance test and fallbacks of
// Fukaya et al., "Shifted Cholesky QR for computing the QR factorization
// of ill-conditioned matrices" (SIAM J. Sci. Comput. 42(1), 2020):
//
//   - Plain: Q₁ = A·R₁⁻¹ with R₁ᵀR₁ = AᵀA, then Q = Q₁·R₂⁻¹ with
//     R₂ᵀR₂ = Q₁ᵀQ₁, and R = R₂R₁. The result is accepted only if
//     ‖Q₁ᵀQ₁ − I‖_F ≤ ½, which makes Q orthonormal to O(u).
//   - Shifted: if pass 1's Cholesky breaks down or pass 2 is rejected
//     (κ(A) beyond about u^-½), the first pass factors AᵀA + s·I with
//     s = 11(mn + n(n+1))·u·trace(AᵀA), which bounds κ(Q₁) by about
//     u^-½, and two plain passes follow (sCholeskyQR3), with the same
//     acceptance test on the last one.
//   - MGS2: a zero or non-finite trace, a Cholesky breakdown in the
//     shifted sequence or a rejected last pass means the input is
//     exactly rank-deficient, zero, or too ill-conditioned for the shift
//     (κ(A) near u⁻¹); column MGS2 factors it. Shapes below qrUseMGS2's
//     bound go to MGS2 directly.
func QRFactorOn(e *compute.Engine, ws *compute.Workspace, a *Dense) *QR {
	m, n := a.R, a.C
	if m < n {
		panic("mat: QRFactor requires rows >= cols")
	}
	if !qrUseMGS2(m, n) {
		if qr := cholQR(e, ws, a); qr != nil {
			return qr
		}
	}
	return qrMGS2(ws, a)
}

// qrUseMGS2 reports whether an m×n factorization is small or narrow
// enough that column MGS2 beats CholeskyQR2 (BenchmarkQRFactor):
//
//   - below m·n² = gemmMinFlops the Grams run on the naive loops rather
//     than the GEMM kernels, and MGS2 measured faster at every such
//     workload shape (200×8, 48×8, 48×4) and slower at every one above;
//   - at n ≤ 3 CholeskyQR's kernels are mostly per-tile overhead, and
//     MGS2 measured faster at any height (4392×3: 81 vs 133 µs).
func qrUseMGS2(m, n int) bool {
	return n <= 3 || m*n*n < gemmMinFlops
}

// Release returns both factors' storage to ws.
func (qr *QR) Release(ws *compute.Workspace) {
	PutDense(ws, qr.Q)
	PutDense(ws, qr.R)
}

// cholAccept is the bound on ‖XᵀX − I‖_F under which a CholeskyQR pass on
// X yields Q orthonormal to O(u) (Fukaya et al., §3).
const cholAccept = 0.5

// cholQR runs the plain and, if needed, the shifted CholeskyQR sequence
// described at QRFactorOn, with every intermediate borrowed from ws. It
// returns nil when the caller should fall back to MGS2.
func cholQR(e *compute.Engine, ws *compute.Workspace, a *Dense) *QR {
	m, n := a.R, a.C
	g := GetDenseRaw(ws, n, n)    // Gram, then its Cholesky factor in place
	rinv := GetDenseRaw(ws, n, n) // R⁻¹ of the current pass
	t := GetDenseRaw(ws, m, n)    // intermediate Q
	q := GetDenseRaw(ws, m, n)
	r := GetDenseRaw(ws, n, n)
	ok := cholQRSeq(e, a, q, r, g, rinv, t)
	PutDense(ws, g)
	PutDense(ws, rinv)
	PutDense(ws, t)
	if !ok {
		PutDense(ws, q)
		PutDense(ws, r)
		return nil
	}
	return &QR{Q: q, R: r}
}

// cholQRSeq writes the CholeskyQR factors of a into q and r, using g,
// rinv and t as scratch: plain CholeskyQR2 (a → t → q) if its last pass
// is accepted, else the shifted sequence (a → q → t → q). It reports
// false when both fail.
func cholQRSeq(e *compute.Engine, a, q, r, g, rinv, t *Dense) bool {
	m, n := a.R, a.C
	gramColsInto(e, g, a)
	tr := 0.0
	for i := 0; i < n; i++ {
		tr += g.Data[i*n+i]
	}
	if !(tr > 0) || math.IsInf(tr, 1) {
		return false
	}
	if cholPass(e, g, rinv, r, t, a, 0, true) {
		gramColsInto(e, g, t)
		if gramDev(g) <= cholAccept && cholPass(e, g, rinv, r, q, t, 0, false) {
			return true
		}
	}
	const u = 0x1p-53
	shift := 11 * float64(m*n+n*(n+1)) * u * tr
	gramColsInto(e, g, a)
	if !cholPass(e, g, rinv, r, q, a, shift, true) {
		return false
	}
	gramColsInto(e, g, q)
	if !cholPass(e, g, rinv, r, t, q, 0, false) {
		return false
	}
	gramColsInto(e, g, t)
	return gramDev(g) <= cholAccept && cholPass(e, g, rinv, r, q, t, 0, false)
}

// cholPass finishes one CholeskyQR pass whose Gram xᵀx is in g: it adds
// shift to g's diagonal, factors g = RᵀR in place (upper triangle), sets
// y = x·R⁻¹ through rinv, and folds R into the accumulated factor r
// (r = R when first, r ← R·r otherwise). It reports false, with y and r
// unspecified, on a Cholesky breakdown.
func cholPass(e *compute.Engine, g, rinv, r, y, x *Dense, shift float64, first bool) bool {
	n := g.C
	for i := 0; i < n; i++ {
		g.Data[i*n+i] += shift
	}
	if !cholUpper(g) {
		return false
	}
	invUpper(rinv, g)
	mulIntoWith(e, y, x, rinv)
	if first {
		for i := 0; i < n; i++ {
			row := r.Data[i*n : i*n+n]
			for j := range row[:i] {
				row[j] = 0
			}
			copy(row[i:], g.Data[i*n+i:i*n+n])
		}
		return true
	}
	// r ← R·r row by row: entry (i, j) reads r's rows k ≥ i of column j
	// only, so ascending rows can overwrite in place.
	for i := 0; i < n; i++ {
		for j := n - 1; j >= i; j-- {
			var s float64
			for k := i; k <= j; k++ {
				s += g.Data[i*n+k] * r.Data[k*n+j]
			}
			r.Data[i*n+j] = s
		}
	}
	return true
}

// cholUpper overwrites the upper triangle of the symmetric matrix g with
// its Cholesky factor R (g = RᵀR); the strict lower triangle is left
// unspecified. It reports false on breakdown: a pivot that is not
// positive and finite, which NaN and Inf entries anywhere in the upper
// triangle reach through the column sums.
func cholUpper(g *Dense) bool {
	n := g.C
	d := g.Data
	for j := 0; j < n; j++ {
		s := d[j*n+j]
		for k := 0; k < j; k++ {
			s -= d[k*n+j] * d[k*n+j]
		}
		if !(s > 0) || math.IsInf(s, 1) {
			return false
		}
		rjj := math.Sqrt(s)
		d[j*n+j] = rjj
		for i := j + 1; i < n; i++ {
			t := d[j*n+i]
			for k := 0; k < j; k++ {
				t -= d[k*n+j] * d[k*n+i]
			}
			d[j*n+i] = t / rjj
		}
	}
	return true
}

// invUpper writes R⁻¹ of the upper-triangular r (positive diagonal) into
// dst, column by column by back substitution, with zeros below the
// diagonal.
func invUpper(dst, r *Dense) {
	n := r.C
	x, d := dst.Data, r.Data
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			x[i*n+j] = 0
		}
		x[j*n+j] = 1 / d[j*n+j]
		for i := j - 1; i >= 0; i-- {
			var s float64
			for k := i + 1; k <= j; k++ {
				s += d[i*n+k] * x[k*n+j]
			}
			x[i*n+j] = -s / d[i*n+i]
		}
	}
}

// gramDev returns ‖g − I‖_F for a square g; NaN entries make it NaN,
// which fails every acceptance comparison.
func gramDev(g *Dense) float64 {
	n := g.C
	var s float64
	for i := 0; i < n; i++ {
		for j, v := range g.Data[i*n : i*n+n] {
			if i == j {
				v--
			}
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// qrMGS2 factors a by two-pass modified Gram–Schmidt directly on the
// columns of one working copy. It serves the shapes below qrUseMGS2's
// bound and the inputs CholeskyQR cannot factor (exactly rank-deficient
// or zero): a column whose residual vanishes gets a zero Q column and a
// zero R diagonal instead of NaNs.
func qrMGS2(ws *compute.Workspace, a *Dense) *QR {
	n := a.C
	q := CloneWith(ws, a)
	r := GetDense(ws, n, n)
	for j := 0; j < n; j++ {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				dot := colDot(q, i, j)
				r.Data[i*n+j] += dot
				colAxpy(q, -dot, i, j)
			}
		}
		nrm := colNorm(q, j)
		r.Data[j*n+j] = nrm
		if nrm > 0 {
			colScale(q, j, 1/nrm)
		}
	}
	return &QR{Q: q, R: r}
}

// colDot returns column i · column j of m. The 4-lane accumulator
// round-robin breaks the loop-carried dependency chain.
func colDot(m *Dense, i, j int) float64 {
	s := m.RowStride()
	var a0, a1, a2, a3 float64
	r := 0
	for ; r+4 <= m.R; r += 4 {
		a0 += m.Data[r*s+i] * m.Data[r*s+j]
		a1 += m.Data[(r+1)*s+i] * m.Data[(r+1)*s+j]
		a2 += m.Data[(r+2)*s+i] * m.Data[(r+2)*s+j]
		a3 += m.Data[(r+3)*s+i] * m.Data[(r+3)*s+j]
	}
	switch m.R - r {
	case 3:
		a2 += m.Data[(r+2)*s+i] * m.Data[(r+2)*s+j]
		fallthrough
	case 2:
		a1 += m.Data[(r+1)*s+i] * m.Data[(r+1)*s+j]
		fallthrough
	case 1:
		a0 += m.Data[r*s+i] * m.Data[r*s+j]
	}
	return (a0 + a1) + (a2 + a3)
}

// colAxpy does column j += alpha * column i.
func colAxpy(m *Dense, alpha float64, i, j int) {
	s := m.RowStride()
	for r := 0; r < m.R; r++ {
		m.Data[r*s+j] += alpha * m.Data[r*s+i]
	}
}

func colNorm(m *Dense, j int) float64 {
	s := m.RowStride()
	var d float64
	for r := 0; r < m.R; r++ {
		v := m.Data[r*s+j]
		d += v * v
	}
	return math.Sqrt(d)
}

func colScale(m *Dense, j int, sc float64) {
	s := m.RowStride()
	for r := 0; r < m.R; r++ {
		m.Data[r*s+j] *= sc
	}
}

// SolveUpper solves R x = b for upper-triangular R (n×n). Zero (or tiny)
// pivots are treated as rank deficiencies: the corresponding solution
// component is set to zero, giving a basic least-norm-flavored solution
// rather than NaNs.
func SolveUpper(r *Dense, b []float64) []float64 {
	n := r.R
	x := make([]float64, n)
	tol := 1e-13 * r.MaxAbs()
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if math.Abs(float64(row[i])) <= tol {
			x[i] = 0
			continue
		}
		x[i] = s / row[i]
	}
	return x
}

// LstSq solves min ‖Ax − b‖₂ via thin QR: x = R⁻¹ Qᵀ b. A must have
// rows ≥ cols.
func LstSq(a *Dense, b []float64) []float64 {
	if len(b) != a.R {
		panic("mat: LstSq dimension mismatch")
	}
	qr := QRFactor(a)
	// qtb = Qᵀ b
	qtb := make([]float64, a.C)
	for j := 0; j < a.C; j++ {
		var s float64
		for i := 0; i < a.R; i++ {
			s += qr.Q.Data[i*a.C+j] * b[i]
		}
		qtb[j] = s
	}
	return SolveUpper(qr.R, qtb)
}
