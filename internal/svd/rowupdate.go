package svd

import (
	"fmt"

	"imrdmd/internal/mat"
)

// AddRows extends the running decomposition with new rows (new spatial
// measurements covering the full absorbed column history) — the transpose
// counterpart of Update, supporting the paper's future-work extension of
// adding entire new time series to I-mrDMD.
//
// With X = U Σ Vᵀ and a new row block B (k×t):
//
//	[X; B] = [U 0; 0 I] · K · [V Qh]ᵀ,   K = | Σ      0  |
//	                                         | (BV)   Rhᵀ|
//
// where Hᵀ = B − (BV)Vᵀ is the out-of-subspace residual and Qh Rh its
// (transposed) QR factorization. Like Update, every intermediate is
// borrowed from the workspace and the replaced factors are recycled.
func (inc *Incremental) AddRows(b *mat.Dense) {
	if b.C != inc.V.R {
		panic(fmt.Sprintf("svd: AddRows column mismatch %d vs %d", b.C, inc.V.R))
	}
	if b.R == 0 {
		return
	}
	eachRowBlock(b, inc.addRows)
}

// eachRowBlock partitions a row (new-sensor) block into the schedule
// AddRows absorbs — chunks of at most b.C rows, keeping the transposed
// residual QR tall — and invokes fn on each chunk in order.
func eachRowBlock(b *mat.Dense, fn func(*mat.Dense)) {
	if b.R > b.C {
		for i := 0; i < b.R; i += b.C {
			fn(b.RowSlice(i, min(i+b.C, b.R)))
		}
		return
	}
	fn(b)
}

// addRows absorbs one row chunk b (k×t): L = B·V, the residual
// H = B − L·Vᵀ with its transposed QR, the core [Σ 0; L Rhᵀ], its SVD and
// the rank decision, then U' = [U 0; 0 I]·Uc and V' = [V Qh]·Vc.
func (inc *Incremental) addRows(b *mat.Dense) {
	e, ws := inc.eng, inc.ws
	q := len(inc.S)
	k := b.R
	t := inc.V.R
	m := inc.U.R
	v := inc.V

	l := mat.MulWith(e, ws, b, v) // k×q
	h := mat.CloneWith(ws, b)
	for i := 0; i < k; i++ {
		hrow := h.Row(i)
		lrow := l.Row(i)
		for j := 0; j < q; j++ {
			lij := lrow[j]
			if lij == 0 {
				continue
			}
			for r := 0; r < t; r++ {
				hrow[r] -= lij * v.Data[r*q+j]
			}
		}
	}
	ht := mat.TWith(ws, h)
	mat.PutDense(ws, h)
	qr := mat.QRFactorOn(e, ws, ht) // Qh t×k, Rh k×k
	mat.PutDense(ws, ht)

	// Kᵀ = [Σ Lᵀ; 0 Rh] has the column update's core shape, so the one
	// secular-equation core serves both: Kᵀ = Uc Σ Vcᵀ ⇒ K = Vc Σ Ucᵀ.
	lt := mat.TWith(ws, l)
	mat.PutDense(ws, l)
	core := brandCore(ws, inc.S, lt, qr.R)
	mat.PutDense(ws, lt)

	rank := truncRank(core.S, inc.MaxRank, inc.DropTol)
	uc := mat.ColSliceWith(ws, core.V, 0, rank) // (q+k)×r
	vc := mat.ColSliceWith(ws, core.U, 0, rank) // (q+k)×r
	mat.PutDense(ws, core.U)
	mat.PutDense(ws, core.V)

	// U' = [U·Uc_top ; Uc_bot]: existing rows rotate, the new rows are
	// the core's bottom block.
	newU := mat.GetDenseRaw(ws, m+k, rank)
	top := &mat.Dense{R: m, C: rank, Data: newU.Data[:m*rank]}
	mat.MulIntoWith(e, top, inc.U, &mat.Dense{R: q, C: rank, Data: uc.Data[:q*rank]})
	copy(newU.Data[m*rank:], uc.Data[q*rank:])
	mat.PutDense(ws, uc)

	// V' = [V Qh]·Vc.
	vq := mat.GetDenseRaw(ws, t, q+k)
	for i := 0; i < t; i++ {
		copy(vq.Row(i)[:q], v.Row(i))
		copy(vq.Row(i)[q:], qr.Q.Row(i))
	}
	qr.Release(ws)
	newV := mat.MulWith(e, ws, vq, vc)
	mat.PutDense(ws, vq)
	mat.PutDense(ws, vc)

	newS := make([]float64, rank)
	copy(newS, core.S[:rank])
	inc.replaceFactors(newU, newS, newV)
	inc.updates++
	if inc.reorthEvery > 0 && inc.updates%inc.reorthEvery == 0 {
		inc.reorthogonalize()
	}
}
