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
// Adding rows is a column update of the transpose (Brand, Linear Algebra
// Appl. 415, 2006): [X; B]ᵀ = [Xᵀ Bᵀ] and Xᵀ = V·Σ·Uᵀ. So Bᵀ is absorbed
// by the column update's Brand step with U and V swapped, in chunks of at
// most t columns (the residual QR stays tall), and the factors are
// swapped back before each chunk's re-orthogonalization tick, which
// therefore still runs on U.
func (inc *Incremental) AddRows(b *mat.Dense) {
	if b.C != inc.V.R {
		panic(fmt.Sprintf("svd: AddRows column mismatch %d vs %d", b.C, inc.V.R))
	}
	if b.R == 0 {
		return
	}
	bt := mat.TWith(inc.ws, b)
	eachUpdateBlock(bt, 0, bt.R, func(c *mat.Dense) {
		inc.U, inc.V = inc.V, inc.U
		inc.update(c)
		inc.U, inc.V = inc.V, inc.U
		inc.tick()
	})
	mat.PutDense(inc.ws, bt)
}
