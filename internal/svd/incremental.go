package svd

import (
	"fmt"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// Incremental maintains a truncated SVD X ≈ U diag(S) Vᵀ of a matrix
// that grows by columns ("spatially parallel / temporally serial" in the
// terminology of Kühl et al. [46], which the paper's I-mrDMD adopts).
//
// The update is Brand's additive algorithm: project the incoming block C
// onto the current basis, QR-factor the out-of-subspace residual, build
// the small augmented core matrix
//
//	K = | diag(S)  UᵀC |
//	    |   0      R   |
//
// take its SVD — a diagonal plus c dense columns, solved column by
// column by the secular equation (brandCore) — and rotate the bases.
// Cost per update is O(m·q·c + q³) for m rows, rank q and c new columns
// — independent of how many columns have been absorbed before, which is
// exactly the property that makes I-mrDMD's partial fits flat in Table I
// of the paper.
//
// Every intermediate of the update — the projection L, the residual and
// its QR factors, the augmented core K and the extended bases — is
// borrowed from a compute.Workspace, and the replaced U/V factors are
// recycled into the same pool, so sustained streams of updates are
// allocation-stable (see DESIGN.md §2).
type Incremental struct {
	U *mat.Dense // m×q
	S []float64  // q
	V *mat.Dense // t×q, t grows with absorbed columns

	// MaxRank caps q after every update; 0 means unbounded.
	MaxRank int
	// DropTol removes singular values below DropTol·σmax after every
	// update. Zero uses a conservative default.
	DropTol float64

	updates int
	// reorthEvery controls the periodic exact re-orthogonalization of U
	// that counters Brand-update drift.
	reorthEvery int

	eng *compute.Engine
	ws  *compute.Workspace
}

// NewIncremental seeds the running SVD from a first batch of columns,
// using the shared default engine.
func NewIncremental(first *mat.Dense, maxRank int) *Incremental {
	return NewIncrementalWith(compute.Default(), nil, first, maxRank)
}

// DefaultDropTol and DefaultReorthEvery are the incremental update
// defaults NewIncrementalWith installs: the relative singular-value drop
// threshold and the period of the exact re-orthogonalization of U.
const (
	DefaultDropTol     = 1e-10
	DefaultReorthEvery = 8
)

// NewIncrementalWith seeds the running SVD with an explicit engine and
// workspace (nil ws creates a private one; nil eng runs serially).
func NewIncrementalWith(eng *compute.Engine, ws *compute.Workspace, first *mat.Dense, maxRank int) *Incremental {
	if ws == nil {
		ws = compute.NewWorkspace()
	}
	r := ComputeWith(eng, ws, first)
	if maxRank > 0 && r.Rank() > maxRank {
		r = r.Truncate(maxRank)
	}
	return &Incremental{
		U:           r.U,
		S:           r.S,
		V:           r.V,
		MaxRank:     maxRank,
		DropTol:     DefaultDropTol,
		reorthEvery: DefaultReorthEvery,
		eng:         eng,
		ws:          ws,
	}
}

// Rows returns m, the (fixed) row dimension.
func (inc *Incremental) Rows() int { return inc.U.R }

// Cols returns t, the number of columns absorbed so far.
func (inc *Incremental) Cols() int { return inc.V.R }

// Rank returns the current truncation rank q.
func (inc *Incremental) Rank() int { return len(inc.S) }

// WorkspaceStats reports buffer-pool gets and hits (for reuse tests).
func (inc *Incremental) WorkspaceStats() (gets, hits int) { return inc.ws.Stats() }

// UpdateBlock absorbs c in chunks of w columns. Each chunk costs one QR
// of the residual block plus one (q+w)-sized core SVD and basis rotation,
// so a block of w columns pays a single factorization where w
// column-at-a-time updates (w = 1) would pay w of them — the amortization
// behind core's BlockColumns knob. The absorbed subspace is the same:
// Brand updates compose exactly up to rank truncation, so chunked and
// columnwise absorption agree to working precision (blockcolumns tests in
// svd and core pin this).
//
// w <= 0, or w >= c.C, absorbs c as one block — identical to Update.
func (inc *Incremental) UpdateBlock(c *mat.Dense, w int) {
	if c.C == 0 {
		return // empty blocks are a no-op even with a degenerate row field
	}
	if c.R != inc.U.R {
		panic(fmt.Sprintf("svd: Incremental.Update row mismatch %d vs %d", c.R, inc.U.R))
	}
	eachUpdateBlock(c, w, inc.U.R, func(blk *mat.Dense) {
		inc.update(blk)
		inc.tick()
	})
}

// eachUpdateBlock partitions c into the block schedule UpdateBlock
// absorbs and invokes fn on each block in order: chunks of w columns
// (w ≤ 0, or w ≥ c.C, is a single chunk), each further split so no block
// is wider than maxW — the row count, keeping the residual QR tall.
// Blocks are zero-copy column views into c (stride = c.C); when the
// schedule is a single block, c itself is passed through.
func eachUpdateBlock(c *mat.Dense, w, maxW int, fn func(*mat.Dense)) {
	if w <= 0 || w > c.C {
		w = c.C
	}
	for j := 0; j < c.C; j += w {
		hi := min(j+w, c.C)
		blk := c
		if j != 0 || hi != c.C {
			blk = mat.ColsView(c, j, hi)
		}
		if blk.C > maxW {
			for i := 0; i < blk.C; i += maxW {
				fn(mat.ColsView(blk, i, min(i+maxW, blk.C)))
			}
		} else {
			fn(blk)
		}
	}
}

// Update absorbs a new block of columns c (m×k). Blocks wider than the
// row count are split so the residual QR stays tall.
func (inc *Incremental) Update(c *mat.Dense) {
	inc.UpdateBlock(c, 0)
}

// update is one Brand step: it absorbs the block c (m×k) into the
// factors. AddRows runs it on the swapped factors.
func (inc *Incremental) update(c *mat.Dense) {
	q := inc.Rank()
	k := c.C
	ws := inc.ws

	// L = Uᵀ C (q×k); H = C − U L, the out-of-basis residual.
	l := mat.MulTWith(inc.eng, ws, inc.U, c)
	h := mat.MulWith(inc.eng, ws, inc.U, l) // holds U·L, flipped to C − U·L below
	for i := 0; i < h.R; i++ {
		hrow := h.Row(i)
		crow := c.Row(i)
		for j := range hrow {
			hrow[j] = crow[j] - hrow[j]
		}
	}
	qr := mat.QRFactorOn(inc.eng, ws, h) // J (m×k) orthonormal, R (k×k)
	mat.PutDense(ws, h)

	// The augmented core K = [diag(S) L; 0 R], factored by its secular
	// equation (brandcore.go).
	core := brandCore(ws, inc.S, l, qr.R)
	mat.PutDense(ws, l)

	// Rotate bases: U ← [U J]·Uc, V ← [[V 0];[0 I]]·Vc.
	// uj is a raw borrow: both column blocks are fully copied below.
	m := inc.U.R
	uj := mat.GetDenseRaw(ws, m, q+k)
	for i := 0; i < m; i++ {
		row := uj.Row(i)
		copy(row[:q], inc.U.Row(i))
		copy(row[q:], qr.Q.Row(i))
	}
	newU := mat.MulWith(inc.eng, ws, uj, core.U)
	mat.PutDense(ws, uj)
	qr.Release(ws)

	t := inc.V.R
	vext := mat.GetDense(ws, t+k, q+k)
	for i := 0; i < t; i++ {
		copy(vext.Row(i)[:q], inc.V.Row(i))
	}
	for i := 0; i < k; i++ {
		vext.Set(t+i, q+i, 1)
	}
	newV := mat.MulWith(inc.eng, ws, vext, core.V)
	mat.PutDense(ws, vext)
	mat.PutDense(ws, core.U)
	mat.PutDense(ws, core.V)

	inc.replaceFactors(newU, core.S, newV)
	inc.truncate()
}

// tick counts one absorbed block and runs the periodic
// re-orthogonalization of U on every reorthEvery-th.
func (inc *Incremental) tick() {
	inc.updates++
	if inc.reorthEvery > 0 && inc.updates%inc.reorthEvery == 0 {
		inc.reorthogonalize()
	}
}

// replaceFactors installs the rotated bases and recycles the previous
// factor storage into the workspace pool.
func (inc *Incremental) replaceFactors(u *mat.Dense, s []float64, v *mat.Dense) {
	mat.PutDense(inc.ws, inc.U)
	mat.PutDense(inc.ws, inc.V)
	inc.U, inc.S, inc.V = u, s, v
}

// truncate applies MaxRank and DropTol.
func (inc *Incremental) truncate() {
	rank := truncRank(inc.S, inc.MaxRank, inc.DropTol)
	if rank == len(inc.S) {
		return
	}
	shrinkCols(inc.U, rank)
	shrinkCols(inc.V, rank)
	inc.S = inc.S[:rank]
}

// truncRank applies the incremental updates' retention rule to a
// descending spectrum: cap at maxRank (0 = unbounded), then drop trailing
// values at or below dropTol·σmax (≤ 0 uses DefaultDropTol), always
// keeping at least one.
func truncRank(s []float64, maxRank int, dropTol float64) int {
	rank := len(s)
	if maxRank > 0 && rank > maxRank {
		rank = maxRank
	}
	tol := dropTol
	if tol <= 0 {
		tol = DefaultDropTol
	}
	if len(s) > 0 {
		floor := tol * s[0]
		for rank > 1 && s[rank-1] <= floor {
			rank--
		}
	}
	return rank
}

// reorthogonalize restores exact column orthonormality of U, which drifts
// slowly under repeated Brand updates. The correction is exact: with
// U = Q R, the factorization becomes Q·(R diag(S))·Vᵀ and the small SVD
// of R·diag(S) re-diagonalizes the core.
func (inc *Incremental) reorthogonalize() {
	q := inc.Rank()
	ws := inc.ws
	qr := mat.QRFactorOn(inc.eng, ws, inc.U)
	rs := mat.CloneWith(ws, qr.R)
	for i := 0; i < q; i++ {
		row := rs.Row(i)
		for j := range row {
			row[j] *= inc.S[j]
		}
	}
	core := jacobiSVDWS(inc.eng, rs, ws, true)
	mat.PutDense(ws, rs)
	newU := mat.MulWith(inc.eng, ws, qr.Q, core.U)
	newV := mat.MulWith(inc.eng, ws, inc.V, core.V)
	qr.Release(ws)
	mat.PutDense(ws, core.U)
	mat.PutDense(ws, core.V)
	inc.replaceFactors(newU, core.S, newV)
	inc.truncate()
}

// Result snapshots the current decomposition. The returned factors are
// deep copies, independent of the workspace-pooled internals.
func (inc *Incremental) Result() *Result {
	return &Result{U: inc.U.Clone(), S: append([]float64(nil), inc.S...), V: inc.V.Clone()}
}

// ResultView returns the live factors without copying. The view is
// read-only and valid only until the next Update/AddRows — the factor
// storage is recycled into the workspace pool on replacement. Use Result
// for anything retained.
func (inc *Incremental) ResultView() *Result {
	return &Result{U: inc.U, S: inc.S, V: inc.V}
}
