package svd

import (
	"math"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// The Brand core. Every incremental update factors the (q+k)×(q+k) core
//
//	K = | diag(s)  L |
//	    |   0      R |
//
// with L q×k and R k×k upper triangular (AddRows reaches it through the
// column update on swapped factors). K is diagonal plus k dense
// columns, so it is never handed to the dense Jacobi: brandCore appends
// one column at a time, and each step is the SVD of a broken arrowhead,
// solved by its secular equation (Brand, Linear Algebra Appl. 415, 2006;
// Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995).
//
// With the core built so far M_j = U_j Σ_j V_jᵀ, appending column
// c = [L[:,j]; R[0:j,j]] with diagonal ρ = R[j,j] gives
//
//	M_{j+1} = blkdiag(U_j,1) · B · blkdiag(V_j,1)ᵀ,  B = D + w·e_nᵀ,
//
// where D = diag(σ, 0), w = [U_jᵀc; ρ] and e_n is the appended
// coordinate. B·Bᵀ = D² + w·wᵀ, so the squared singular values of B are
// the roots of 1 + Σ w_j²/(d_j² − σ²) = 0, one per interlacing interval.
// Each root is kept as an offset τ from its nearer pole, so every
// d_j² − σ_i² is formed as (d_j − d_o − τ)(d_j + d_o + τ) without
// cancellation. The weights are then recomputed from the roots by
// Löwner's formula, which makes the vectors
//
//	u_i ∝ ŵ_j/(d_j² − σ_i²),   v_i ∝ [d_j·ŵ_j/(d_j² − σ_i²); −1]
//
// numerically orthogonal however close the roots are. Deflation, at
// tol = 8·ε·max(d_max, ‖w‖), removes the cases the secular equation
// cannot take:
//
//	(a) |w_j| ≤ tol: (d_j, e_j, e_j) is a triplet; at the appended zero
//	    pole it is (0, e_n, v₀) with v₀ ∝ [−ŵ_j/d_j; 1], B's null vector;
//	(b) d_j ≤ tol at an old coordinate: a left-only Givens rotation on
//	    rows (j, n) folds w_j into w_n, leaving a zero row and column;
//	(c) two poles within tol: a two-sided rotation folds one weight into
//	    the other, after which the first deflates by (a).

// brandCore returns the SVD of K = [diag(s) l; 0 r] (see above), with l
// q×k and r k×k upper triangular (entries below its diagonal are
// ignored). The singular values are descending and, as jacobiSVDWS does,
// those at or below relDropTol·σmax are dropped (at least one triplet is
// kept). U and V are borrowed from ws and go back with PutDense; S is
// freshly owned.
func brandCore(ws *compute.Workspace, s []float64, l, r *mat.Dense) *Result {
	u, sig, v := brandCoreFull(ws, s, l, r)
	n := len(sig)
	rank := 0
	for rank < n && sig[rank] > relDropTol*sig[0] && sig[rank] > 0 {
		rank++
	}
	if rank == 0 {
		rank = 1 // zero core: keep a single zero triplet for shape sanity
	}
	out := &Result{U: u, S: make([]float64, rank), V: v}
	copy(out.S, sig[:rank])
	ws.PutF64(sig)
	shrinkCols(u, rank)
	shrinkCols(v, rank)
	return out
}

// brandCoreFull is brandCore without the drop floor: the full square
// factors K = U·diag(σ)·Vᵀ, all three borrowed from ws.
func brandCoreFull(ws *compute.Workspace, s []float64, l, r *mat.Dense) (u *mat.Dense, sig []float64, v *mat.Dense) {
	q, k := len(s), r.R
	sig = ws.GetF64(q + k)
	copy(sig, s)
	c := ws.GetF64(q + k)
	z := ws.GetF64(q + k)
	// u and v start nil: the identity of step 0.
	for j := 0; j < k; j++ {
		n := q + j
		for i := 0; i < q; i++ {
			c[i] = l.At(i, j)
		}
		for i := 0; i < j; i++ {
			c[q+i] = r.At(i, j)
		}
		if u == nil {
			copy(z[:n], c[:n])
		} else {
			for i := range z[:n] {
				z[i] = 0
			}
			for a := 0; a < n; a++ {
				if ca := c[a]; ca != 0 {
					for b, x := range u.Row(a) {
						z[b] += x * ca
					}
				}
			}
		}
		sig[n] = 0
		z[n] = r.At(j, j)
		ua := mat.GetDenseRaw(ws, n+1, n+1)
		va := mat.GetDenseRaw(ws, n+1, n+1)
		arrowSVD(ws, sig[:n+1], z[:n+1], ua, va)
		u = composeBasis(ws, u, ua)
		v = composeBasis(ws, v, va)
	}
	ws.PutF64(c)
	ws.PutF64(z)
	return u, sig, v
}

// composeBasis returns blkdiag(prev, 1)·a, consuming both (nil prev is
// the identity, so a itself is returned).
func composeBasis(ws *compute.Workspace, prev, a *mat.Dense) *mat.Dense {
	if prev == nil {
		return a
	}
	n := prev.R
	out := mat.GetDenseRaw(ws, n+1, n+1)
	mat.MulIntoWith(nil, mat.RowsView(out, 0, n), prev, mat.RowsView(a, 0, n))
	copy(out.Row(n), a.Row(n))
	mat.PutDense(ws, prev)
	mat.PutDense(ws, a)
	return out
}

// shrinkCols keeps the leading c columns of m in place, packing its rows
// into the front of the same storage (which the pool keys by capacity, so
// it is recycled in the same size class). m must own its storage — never
// a view.
func shrinkCols(m *mat.Dense, c int) {
	s := m.RowStride()
	if c == m.C && s == c {
		return
	}
	for i := 0; i < m.R; i++ {
		copy(m.Data[i*c:i*c+c], m.Data[i*s:i*s+c])
	}
	m.C, m.Stride, m.Data = c, 0, m.Data[:m.R*c]
}

// givens is one deflating rotation: rows (i, j) of the left basis, and
// of the right one too when twoSided, are rotated by (c, s).
type givens struct {
	i, j     int
	c, s     float64
	twoSided bool
}

// arrowStackN is the arrowhead order up to which arrowSVD keeps its index
// scratch on the stack; larger cores allocate it.
const arrowStackN = 128

// secularMaxIter bounds the root iteration; the rational steps converge
// in a handful of iterations and the bisection fallback halves the
// bracket each time, so the bound is never reached in practice.
const secularMaxIter = 96

// arrowSVD factors the broken arrowhead B = diag(d) + w·e_nᵀ, where n is
// the last coordinate and d[n] = 0. On return d holds the singular values
// in descending order and the columns of u and v (both len(d) square,
// every element overwritten) the matching left and right vectors. w is
// used as scratch.
func arrowSVD(ws *compute.Workspace, d, w []float64, u, v *mat.Dense) {
	nn := len(d)
	last := nn - 1
	const eps = 0x1p-52

	// Scale to unit size so the squared differences neither overflow nor
	// underflow; the vectors are scale-free and σ scales back at the end.
	var dmax, wnorm float64
	for i := range d {
		dmax = math.Max(dmax, d[i])
		wnorm = math.Hypot(wnorm, w[i])
	}
	scale := math.Max(dmax, wnorm)
	for i := range u.Data {
		u.Data[i] = 0
	}
	for i := range v.Data {
		v.Data[i] = 0
	}
	if scale == 0 {
		for i := 0; i < nn; i++ {
			u.Set(i, i, 1)
			v.Set(i, i, 1)
		}
		return
	}
	for i := range d {
		d[i] /= scale
		w[i] /= scale
	}
	tol := 8 * eps

	// Index scratch lives on the stack for the core sizes the streams
	// use; the float scratch comes from ws.
	var rotBuf [16]givens
	var intBuf [3 * arrowStackN]int
	var flagBuf [arrowStackN]bool
	rots := rotBuf[:0]
	ints := intBuf[:]
	if 3*nn > len(ints) {
		ints = make([]int, 3*nn)
	}
	idx, origin, order := ints[:nn], ints[nn:2*nn], ints[2*nn:3*nn]
	// deflated marks coordinates that left the secular problem; their
	// triplets are (d_j, e_j, e_j) except at the appended pole.
	deflated := flagBuf[:]
	if nn > len(deflated) {
		deflated = make([]bool, nn)
	}
	deflated = deflated[:nn]
	// (b) zero old poles: fold their weight into the appended zero pole.
	for j := 0; j < last; j++ {
		if d[j] > tol {
			continue
		}
		d[j] = 0
		if w[j] != 0 {
			h := math.Hypot(w[j], w[last])
			rots = append(rots, givens{i: j, j: last, c: w[last] / h, s: w[j] / h})
			w[last], w[j] = h, 0
		}
	}
	// (a) negligible weights.
	for j := range w {
		if math.Abs(w[j]) <= tol {
			w[j] = 0
			deflated[j] = true
		}
	}
	// The live poles, ascending.
	kk := 0
	for j := range d {
		if !deflated[j] {
			idx[kk] = j
			kk++
		}
	}
	act := idx[:kk]
	for a := 1; a < kk; a++ {
		x := act[a]
		b := a - 1
		for b >= 0 && d[act[b]] > d[x] {
			act[b+1] = act[b]
			b--
		}
		act[b+1] = x
	}
	// (c) close poles: fold the lower weight into the upper one.
	live := act[:0]
	for a, j := range act {
		if a > 0 {
			p := live[len(live)-1]
			if d[j]-d[p] <= tol {
				h := math.Hypot(w[p], w[j])
				rots = append(rots, givens{i: p, j: j, c: w[j] / h, s: w[p] / h, twoSided: true})
				w[j], w[p] = h, 0
				deflated[p] = true
				live[len(live)-1] = j
				continue
			}
		}
		live = append(live, j)
	}
	act = live
	kk = len(act)

	// Secular roots: root i lies in (p_i, p_{i+1}), the last in
	// (p_{K−1}, √(p_{K−1}² + ‖w‖²)); origin[i] and tau[i] place it at
	// p_origin + τ.
	pw := ws.GetF64(3 * kk)
	p, zw, delta := pw[:kk], pw[kk:2*kk], pw[2*kk:]
	var zz float64
	for a, j := range act {
		p[a], zw[a] = d[j], w[j]
		zz += w[j] * w[j]
	}
	tau := ws.GetF64(kk)
	for i := 0; i < kk; i++ {
		origin[i], tau[i] = secularRoot(p, zw, delta, i, zz)
	}

	// diff[i*kk+a] = p_a² − σ_i², formed from the root's offset.
	diff := ws.GetF64(kk * kk)
	for i := 0; i < kk; i++ {
		po, t := p[origin[i]], tau[i]
		row := diff[i*kk : i*kk+kk]
		for a := range row {
			row[a] = (p[a] - po - t) * (p[a] + po + t)
		}
	}
	// Löwner: the weights for which the computed roots are exact.
	for a := 0; a < kk; a++ {
		pa := p[a]
		prod := -diff[(kk-1)*kk+a]
		for i := 0; i < a; i++ {
			prod *= -diff[i*kk+a] / ((p[i] - pa) * (p[i] + pa))
		}
		for i := a; i < kk-1; i++ {
			prod *= -diff[i*kk+a] / ((p[i+1] - pa) * (p[i+1] + pa))
		}
		zw[a] = math.Copysign(math.Sqrt(math.Abs(prod)), zw[a])
	}

	// Triplets in working coordinates, unordered: column c of u/v holds
	// triplet c, its value in sv[c].
	sv := ws.GetF64(nn)
	col := 0
	for i := 0; i < kk; i++ {
		row := diff[i*kk : i*kk+kk]
		var un, vn float64
		for a, j := range act {
			x := zw[a] / row[a]
			u.Set(j, col, x)
			un += x * x
			if j != last {
				y := p[a] * x
				v.Set(j, col, y)
				vn += y * y
			}
		}
		v.Set(last, col, -1)
		vn++
		un, vn = 1/math.Sqrt(un), 1/math.Sqrt(vn)
		for _, j := range act {
			u.Data[j*nn+col] *= un
		}
		for j := 0; j < nn; j++ {
			v.Data[j*nn+col] *= vn
		}
		sv[col] = (p[origin[i]] + tau[i]) * scale
		col++
	}
	for j := 0; j < nn; j++ {
		if !deflated[j] {
			continue
		}
		u.Set(j, col, 1)
		if j != last {
			v.Set(j, col, 1)
			sv[col] = d[j] * scale
		} else {
			// B's null vector: D·v₀ = −w·v₀[n].
			vn := 1.0
			for a, i := range act {
				y := -zw[a] / p[a]
				v.Set(i, col, y)
				vn += y * y
			}
			v.Set(last, col, 1)
			vn = 1 / math.Sqrt(vn)
			for i := 0; i < nn; i++ {
				v.Data[i*nn+col] *= vn
			}
			sv[col] = 0
		}
		col++
	}

	// Undo the deflating rotations, last first: B = Gᵀ·B'(·G).
	for g := len(rots) - 1; g >= 0; g-- {
		rt := rots[g]
		rotateRows(u, rt.i, rt.j, rt.c, rt.s)
		if rt.twoSided {
			rotateRows(v, rt.i, rt.j, rt.c, rt.s)
		}
	}

	// Sort descending: order[c] is the triplet that lands in column c.
	for i := range order {
		order[i] = i
	}
	for a := 1; a < nn; a++ {
		x := order[a]
		b := a - 1
		for b >= 0 && sv[order[b]] < sv[x] {
			order[b+1] = order[b]
			b--
		}
		order[b+1] = x
	}
	for c, o := range order {
		d[c] = sv[o]
	}
	permuteCols(ws, u, order)
	permuteCols(ws, v, order)

	ws.PutF64(sv)
	ws.PutF64(diff)
	ws.PutF64(tau)
	ws.PutF64(pw)
}

// rotateRows applies Gᵀ to rows (i, j) of m, where G zeroed w_i into w_j:
// (Gx)_i = c·x_i − s·x_j, (Gx)_j = s·x_i + c·x_j.
func rotateRows(m *mat.Dense, i, j int, c, s float64) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		a, b := ri[k], rj[k]
		ri[k] = c*a + s*b
		rj[k] = c*b - s*a
	}
}

// permuteCols reorders m's columns so column c becomes old column
// order[c].
func permuteCols(ws *compute.Workspace, m *mat.Dense, order []int) {
	tmp := ws.GetF64(m.C)
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		copy(tmp, row)
		for c, o := range order {
			row[c] = tmp[o]
		}
	}
	ws.PutF64(tmp)
}

// secularRoot solves 1 + Σ z_a²/(p_a² − σ²) = 0 for its i-th root (p
// ascending and distinct, every z_a nonzero, zz = ‖z‖²) and returns it as
// σ = p[o] + τ for the nearer pole o. delta is len(p) scratch.
//
// The iteration runs on μ = σ² − p_o², with every pole shifted to
// Δ_a = (p_a − p_o)(p_a + p_o). Each step fits the poles left of the
// root by P + Q/(Δ_i − x) and those right of it by R + S/(Δ_{i+1} − x),
// matching value and slope at the iterate (Bunch–Nielsen–Sorensen), and
// moves to the model's root; a step that leaves the bracket the signs of
// f have established falls back to bisection. It stops once f is below
// its rounding error or the bracket is a few ulps wide.
func secularRoot(p, z, delta []float64, i int, zz float64) (int, float64) {
	const eps = 0x1p-52
	n := len(p)
	o := i
	var lo, hi float64
	if i == n-1 {
		hi = zz
	} else {
		// The midpoint of the interval in σ² decides the nearer pole.
		pi, pj := p[i], p[i+1]
		mid := (pj - pi) * (pj + pi) / 2
		f := 1.0
		for a := range p {
			f += z[a] * z[a] / ((p[a]-pi)*(p[a]+pi) - mid)
		}
		if f >= 0 {
			hi = mid
		} else {
			o = i + 1
			lo, hi = -mid, 0
		}
	}
	po := p[o]
	for a := range p {
		delta[a] = (p[a] - po) * (p[a] + po)
	}
	x := (lo + hi) / 2
	if i < n-1 {
		if o == i {
			x = hi
		} else {
			x = lo
		}
	}
	for it := 0; it < secularMaxIter; it++ {
		var psi, dpsi, phi, dphi, erretm float64
		for a := 0; a <= i; a++ {
			t := z[a] / (delta[a] - x)
			psi += z[a] * t
			dpsi += t * t
			erretm -= z[a] * t
		}
		for a := i + 1; a < n; a++ {
			t := z[a] / (delta[a] - x)
			phi += z[a] * t
			dphi += t * t
			erretm += z[a] * t
		}
		f := 1 + psi + phi
		if math.Abs(f) <= 8*eps*(1+erretm)*float64(n) {
			break
		}
		if f < 0 {
			lo = x
		} else {
			hi = x
		}
		if hi-lo <= 4*eps*math.Max(math.Abs(lo), math.Abs(hi)) {
			break
		}
		da := delta[i] - x
		var eta float64
		if i == n-1 {
			eta = da * f / (1 + psi - dpsi*da)
		} else {
			db := delta[i+1] - x
			cc := 1 + psi - dpsi*da + phi - dphi*db
			aa := cc*(da+db) + dpsi*da*da + dphi*db*db
			c0 := da * db * f
			disc := math.Sqrt(math.Abs(aa*aa - 4*cc*c0))
			switch {
			case aa > 0:
				eta = 2 * c0 / (aa + disc)
			case cc != 0:
				eta = (aa - disc) / (2 * cc)
			default:
				eta = c0 / aa
			}
		}
		next := x + eta
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		if next == x {
			break
		}
		x = next
	}
	// τ = μ/(p_o + √(p_o² + μ)), the offset without cancellation.
	return o, x / (po + math.Sqrt(po*po+x))
}
