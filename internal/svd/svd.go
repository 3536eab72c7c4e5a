// Package svd implements the singular value decompositions the DMD layer
// is built on: an accurate one-sided Jacobi SVD for small factors, a
// method-of-snapshots SVD for strongly rectangular matrices, the
// Gavish–Donoho optimal singular value hard threshold (SVHT), and the
// Brand-style incremental SVD the paper adopts for I-mrDMD (Kühl et al.,
// "An incremental singular value decomposition approach for large-scale
// spatially parallel & distributed but temporally serial data").
package svd

import (
	"math"
	"sort"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// Result is an economy SVD A ≈ U diag(S) Vᵀ with U m×k, V n×k and k the
// retained rank (k ≤ min(m,n); tiny singular values may be dropped).
type Result struct {
	U *mat.Dense
	S []float64
	V *mat.Dense
}

// Rank returns the number of retained singular values.
func (r *Result) Rank() int { return len(r.S) }

// Truncate returns a copy of the decomposition keeping the leading k
// singular triplets. k larger than the current rank is clamped.
func (r *Result) Truncate(k int) *Result {
	if k >= r.Rank() {
		return &Result{U: r.U.Clone(), S: append([]float64(nil), r.S...), V: r.V.Clone()}
	}
	return &Result{
		U: r.U.ColSlice(0, k),
		S: append([]float64(nil), r.S[:k]...),
		V: r.V.ColSlice(0, k),
	}
}

// Release returns the factors of a ComputePooledWith result to ws. The
// result must not be used afterwards.
func (r *Result) Release(ws *compute.Workspace) {
	mat.PutDense(ws, r.U)
	mat.PutDense(ws, r.V)
}

// Reconstruct returns U diag(S) Vᵀ.
func (r *Result) Reconstruct() *mat.Dense {
	us := r.U.Clone()
	for i := 0; i < us.R; i++ {
		row := us.Row(i)
		for j := range row {
			row[j] *= r.S[j]
		}
	}
	return mat.Mul(us, r.V.T())
}

// jacobiCutoff is the min-dimension above which Compute switches from
// one-sided Jacobi on the matrix to the method of snapshots.
const jacobiCutoff = 96

// Numerical thresholds of the Jacobi SVD, each a small multiple of the
// float64 machine epsilon (2⁻⁵²): jacobiRotTol is the off-diagonal
// convergence tolerance of the rotation sweep, and relDropTol drops
// singular values below this multiple of the largest — they are
// numerically zero and their singular vectors are noise.
const (
	jacobiRotTol = 1e-15
	relDropTol   = 1e-12
)

// Compute returns the economy SVD of a. Small factors go through
// one-sided Jacobi (high accuracy); larger ones through the method of
// snapshots on the smaller Gram matrix (accuracy ~√ε relative to the
// largest singular value, which is ample for sensor data and is exactly
// the classical POD/DMD route). Both routes run the same Jacobi kernel,
// on a itself or on its Gram matrix.
func Compute(a *mat.Dense) *Result {
	return ComputeWith(compute.Default(), nil, a)
}

// ComputeWith is Compute with its parallel sections routed through engine
// e and its internal scratch borrowed from ws (either may be nil). a may
// be a view (any row stride). The returned factors are freshly owned —
// never workspace storage — so they may be retained indefinitely.
func ComputeWith(e *compute.Engine, ws *compute.Workspace, a *mat.Dense) *Result {
	return computeSVD(e, ws, a, false)
}

// ComputePooledWith is ComputeWith for a transient SVD: U and V are
// borrowed from ws, and the caller hands them back with Release once it
// is done with the factors (the window DMD does so right after its fit).
func ComputePooledWith(e *compute.Engine, ws *compute.Workspace, a *mat.Dense) *Result {
	return computeSVD(e, ws, a, true)
}

func computeSVD(e *compute.Engine, ws *compute.Workspace, a *mat.Dense, poolOut bool) *Result {
	m, n := a.Dims()
	if m == 0 || n == 0 {
		return &Result{U: mat.NewDense(m, 0), S: nil, V: mat.NewDense(n, 0)}
	}
	if min(m, n) <= jacobiCutoff {
		return jacobiSVDWS(e, a, ws, poolOut)
	}
	return snapshotSVD(e, ws, a, poolOut)
}

// jacobiSVD computes the economy SVD by one-sided Jacobi rotations on the
// columns of the (possibly transposed) matrix.
func jacobiSVD(a *mat.Dense) *Result { return jacobiSVDWS(nil, a, nil, false) }

// QRPrecondRatio is the tall-ness (m/n) at which jacobiSVDWS switches to
// QR preconditioning: factor A = Q·R first and run the Jacobi sweeps on
// the small n×n R instead of the full m×n matrix. Each rotation then
// touches n-length columns instead of m-length ones, the QR itself is
// CholeskyQR2 — two Grams and two multiplies on the GEMM kernels — and
// the final U = Q·Ur is one more GEMM, so the tall-window SVDs that
// dominate mrDMD subtree fits cost O(m·n²) in fast kernels plus an
// n-sized Jacobi, not an m-sized one. Accuracy is preserved: the QR's
// acceptance test (with its shifted and MGS2 fallbacks) keeps Q
// orthonormal to O(u) and ‖A − QR‖ at O(u)‖A‖, and one-sided Jacobi on R
// is the classical high-accuracy route (Drmač–Veselić). dmd.ComputeSlow
// applies the same rule to a whole window, which it then fits on R.
const QRPrecondRatio = 2

// jacobiSVDWS is jacobiSVD with rotation scratch borrowed from ws. When
// poolOut is set, the returned U and V are workspace storage
// too and the caller must PutDense them back (used by the incremental
// SVD's re-orthogonalization, whose factors are recycled, and by
// ComputePooledWith). The incremental updates' own cores are not dense
// and go through brandCore instead.
func jacobiSVDWS(e *compute.Engine, a *mat.Dense, ws *compute.Workspace, poolOut bool) *Result {
	m, n := a.Dims()
	if m < n {
		// Factor the transpose and swap factors: Aᵀ = U S Vᵀ ⇒ A = V S Uᵀ.
		at := mat.TWith(ws, a)
		r := jacobiSVDWS(e, at, ws, poolOut)
		mat.PutDense(ws, at)
		return &Result{U: r.V, S: r.S, V: r.U}
	}
	if n >= 2 && m >= QRPrecondRatio*n {
		// Tall case: A = Q·R, SVD the small R, rotate Q.
		qr := mat.QRFactorOn(e, ws, a)
		rs := jacobiSVDWS(e, qr.R, ws, true)
		var u *mat.Dense
		if poolOut {
			u = mat.MulWith(e, ws, qr.Q, rs.U)
		} else {
			u = mat.MulWith(e, nil, qr.Q, rs.U)
		}
		qr.Release(ws)
		mat.PutDense(ws, rs.U)
		v := rs.V
		if !poolOut {
			v = rs.V.Clone()
			mat.PutDense(ws, rs.V)
		}
		return &Result{U: u, S: rs.S, V: v}
	}
	// The sweeps run on the TRANSPOSE of a: column j becomes contiguous
	// row j, so every pair dot and rotation streams two unit-stride rows
	// instead of gathering at stride n. The per-element arithmetic and
	// accumulation order (k ascending) are identical to the column form,
	// so the factors are bit-identical — only the memory layout changes.
	wt := mat.TWith(ws, a) // n×m: row j will be rotated into column j of U·Σ
	vt := mat.GetDense(ws, n, n)
	for i := 0; i < n; i++ {
		vt.Data[i*n+i] = 1
	}

	const maxSweeps = 48
	// Convergence: all column pairs orthogonal relative to their norms.
	for sweep := 0; sweep < maxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				rp := wt.Data[p*m : p*m+m]
				rq := wt.Data[q*m : q*m+m]
				// Two accumulator lanes per sum: the three running sums
				// share one loop-carried chain each, and splitting them
				// by parity roughly doubles the issue rate on the pair
				// scan, the O(n²m) part the convergence test always pays.
				var app0, app1, aqq0, aqq1, apq0, apq1 float64
				k := 0
				for ; k+2 <= m; k += 2 {
					wp0, wq0 := rp[k], rq[k]
					wp1, wq1 := rp[k+1], rq[k+1]
					app0 += wp0 * wp0
					aqq0 += wq0 * wq0
					apq0 += wp0 * wq0
					app1 += wp1 * wp1
					aqq1 += wq1 * wq1
					apq1 += wp1 * wq1
				}
				if k < m {
					wp, wq := rp[k], rq[k]
					app0 += wp * wp
					aqq0 += wq * wq
					apq0 += wp * wq
				}
				app := app0 + app1
				aqq := aqq0 + aqq1
				apq := apq0 + apq1
				if app == 0 || aqq == 0 {
					continue
				}
				if math.Abs(apq) <= jacobiRotTol*math.Sqrt(app*aqq) {
					continue
				}
				rotated = true
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := 0; k < m; k++ {
					wp, wq := rp[k], rq[k]
					rp[k] = c*wp - s*wq
					rq[k] = s*wp + c*wq
				}
				vp0 := vt.Data[p*n : p*n+n]
				vq0 := vt.Data[q*n : q*n+n]
				for k := 0; k < n; k++ {
					vp, vq := vp0[k], vq0[k]
					vp0[k] = c*vp - s*vq
					vq0[k] = s*vp + c*vq
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Singular values are the rotated rows' norms (= column norms of U·Σ);
	// U the normalized columns.
	type triplet struct {
		s   float64
		idx int
	}
	tr := make([]triplet, n)
	for j := 0; j < n; j++ {
		row := wt.Data[j*m : j*m+m]
		var s float64
		for k := 0; k < m; k++ {
			x := row[k]
			s += x * x
		}
		tr[j] = triplet{math.Sqrt(s), j}
	}
	// Insertion sort, descending: n is small on the update hot path (at
	// most jacobiCutoff), and this avoids sort.Slice's reflection
	// allocations there.
	for i := 1; i < n; i++ {
		t := tr[i]
		j := i - 1
		for j >= 0 && tr[j].s < t.s {
			tr[j+1] = tr[j]
			j--
		}
		tr[j+1] = t
	}

	smax := tr[0].s
	rank := 0
	for rank < n && tr[rank].s > relDropTol*smax && tr[rank].s > 0 {
		rank++
	}
	if rank == 0 {
		rank = 1 // zero matrix: keep a single zero triplet for shape sanity
	}

	var u, vv *mat.Dense
	if poolOut {
		u = mat.GetDense(ws, m, rank)
		vv = mat.GetDense(ws, n, rank)
	} else {
		u = mat.NewDense(m, rank)
		vv = mat.NewDense(n, rank)
	}
	ss := make([]float64, rank)
	for jOut := 0; jOut < rank; jOut++ {
		j := tr[jOut].idx
		sv := tr[jOut].s
		ss[jOut] = sv
		inv := 0.0
		if sv > 0 {
			inv = 1 / sv
		}
		wrow := wt.Data[j*m : j*m+m]
		for k := 0; k < m; k++ {
			u.Data[k*rank+jOut] = wrow[k] * inv
		}
		vrow := vt.Data[j*n : j*n+n]
		for k := 0; k < n; k++ {
			vv.Data[k*rank+jOut] = vrow[k]
		}
	}
	mat.PutDense(ws, wt)
	mat.PutDense(ws, vt)
	return &Result{U: u, S: ss, V: vv}
}

// snapshotSVD computes the economy SVD from the smaller Gram matrix (the
// classical method of snapshots), factored by the same one-sided Jacobi
// as small matrices: for the symmetric positive semidefinite G its right
// singular vectors are its eigenvectors and its singular values its
// eigenvalues λ = σ². Jacobi's relative drop tolerance on G keeps
// σ ≥ √relDropTol·σmax = 1e-6·σmax; below that the Gram's absolute error
// (about u·σmax²) swamps σ² anyway. With poolOut the returned U and V are
// borrowed from ws, as in jacobiSVDWS.
func snapshotSVD(e *compute.Engine, ws *compute.Workspace, a *mat.Dense, poolOut bool) *Result {
	var out *compute.Workspace // nil: the factors are freshly owned
	if poolOut {
		out = ws
	}
	// n ≤ m: G = AᵀA = V Λ Vᵀ and U = A V Σ⁻¹. Otherwise G = AAᵀ = U Λ Uᵀ
	// and V = Aᵀ U Σ⁻¹.
	left := a.R < a.C
	g := mat.GramWith(e, ws, a, !left)
	eg := jacobiSVDWS(e, g, ws, poolOut)
	mat.PutDense(ws, g)
	mat.PutDense(ws, eg.U)
	if eg.S[0] == 0 {
		mat.PutDense(ws, eg.V)
		m, n := a.Dims()
		return &Result{U: mat.NewDense(m, 1), S: []float64{0}, V: mat.NewDense(n, 1)}
	}
	s, vecs := eg.S, eg.V
	for i, l := range s {
		s[i] = math.Sqrt(l)
	}
	if !left {
		// vecs = V; U = A V Σ⁻¹.
		u := mat.MulWith(e, out, a, vecs)
		scaleColsInv(u, s)
		return &Result{U: u, S: s, V: vecs}
	}
	// vecs = U; V = Aᵀ U Σ⁻¹ computed as (UᵀA)ᵀ Σ⁻¹ without materializing Aᵀ.
	v := mat.MulTWith(e, out, a, vecs) // aᵀ·vecs — exactly Aᵀ U.
	scaleColsInv(v, s)
	return &Result{U: vecs, S: s, V: v}
}

func scaleColsInv(m *mat.Dense, s []float64) {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] /= s[j]
		}
	}
}

// SVHTRank returns the number of singular values that survive the
// Gavish–Donoho optimal hard threshold τ = ω(β)·median(σ) for a matrix
// with aspect ratio β = min(m,n)/max(m,n) and unknown noise level, using
// the standard cubic approximation of ω.
func SVHTRank(s []float64, m, n int) int {
	return SVHTRankWith(nil, s, m, n)
}

// SVHTRankWith is SVHTRank with the median's sort scratch borrowed from ws
// (nil ws allocates). The threshold runs inside every window fit and every
// PartialFit refresh, so the hot caller (dmd.FromSVD) passes its
// workspace to keep the decision allocation-free.
func SVHTRankWith(ws *compute.Workspace, s []float64, m, n int) int {
	if len(s) == 0 {
		return 0
	}
	beta := float64(min(m, n)) / float64(max(m, n))
	omega := 0.56*beta*beta*beta - 0.95*beta*beta + 1.82*beta + 1.43
	med := medianWith(ws, s)
	tau := omega * med
	rank := 0
	for rank < len(s) && s[rank] > tau {
		rank++
	}
	if rank == 0 {
		rank = 1 // always keep at least the dominant direction
	}
	return rank
}

// medianWith computes the median of a spectrum, sorting a
// workspace-borrowed copy (the input is descending already, but the copy
// keeps the contract allocation-free rather than order-dependent).
func medianWith(ws *compute.Workspace, s []float64) float64 {
	c := ws.GetF64(len(s))
	copy(c, s)
	sort.Float64s(c)
	n := len(c)
	var med float64
	if n%2 == 1 {
		med = c[n/2]
	} else {
		med = 0.5 * (c[n/2-1] + c[n/2])
	}
	ws.PutF64(c)
	return med
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
