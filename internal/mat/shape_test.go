package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// pieceShapes are workload product shapes m×k×n: the P=200 residual
// update and rotations, a P=48 window fit, a Theta-height projection and
// a small square one. Their row and column pieces cover products far
// below and above 2¹⁴ flops on every tier.
var pieceShapes = []struct{ m, k, n int }{
	{200, 3, 48}, {48, 20, 40}, {4392, 3, 20}, {20, 20, 20}, {200, 10, 64},
}

// pieceWidths are the row and column piece sizes each product is cut
// into (the last piece of a cut may be narrower).
var pieceWidths = []int{1, 2, 3, 5, 8, 13}

// eachPiece calls f with every [lo, hi) piece of [0, n) at every width in
// pieceWidths.
func eachPiece(n int, f func(lo, hi int)) {
	for _, w := range pieceWidths {
		for lo := 0; lo < n; lo += w {
			f(lo, min(lo+w, n))
		}
	}
}

// TestProductBitsIndependentOfShape computes every product in row pieces
// and in column pieces and requires each piece to equal the matching
// block of the one-shot product bit for bit: an element's bits must not
// depend on the shape of the product it is computed in. That holds
// because every shape runs on the pack-free or the packed kernels, which
// share one accumulation chain per element.
func TestProductBitsIndependentOfShape(t *testing.T) {
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(71))
			var pieces, differ int
			check := func(name string, want, got *Dense) {
				pieces++
				for i := 0; i < want.R; i++ {
					for j := 0; j < want.C; j++ {
						if want.At(i, j) != got.At(i, j) {
							differ++
							if differ <= 5 {
								t.Errorf("%s: (%d,%d) one-shot %v, piece %v", name, i, j, want.At(i, j), got.At(i, j))
							}
							return
						}
					}
				}
			}
			for _, c := range pieceShapes {
				shape := fmt.Sprintf("%dx%dx%d", c.m, c.k, c.n)
				a := randDense(rng, c.m, c.k)
				at := randDense(rng, c.k, c.m) // MulT: atᵀ·b
				b := randDense(rng, c.k, c.n)
				base := randDense(rng, c.m, c.n)
				x := randDense(rng, c.m, c.n) // Gram: xᵀx, n×n over depth m

				mul := NewDense(c.m, c.n)
				MulIntoWith(nil, mul, a, b)
				mulT := NewDense(c.m, c.n)
				MulTIntoWith(nil, mulT, at, b)
				add, sub := base.Clone(), base.Clone()
				MulAddIntoWith(nil, add, a, b)
				MulSubIntoWith(nil, sub, a, b)
				gram := GramWith(nil, nil, x, true)

				eachPiece(c.m, func(lo, hi int) {
					name := fmt.Sprintf("%s rows [%d,%d)", shape, lo, hi)
					got := NewDense(hi-lo, c.n)
					MulIntoWith(nil, got, RowsView(a, lo, hi), b)
					check("Mul "+name, RowsView(mul, lo, hi), got)
					MulTIntoWith(nil, got, ColsView(at, lo, hi), b)
					check("MulT "+name, RowsView(mulT, lo, hi), got)
					acc := CloneWith(nil, RowsView(base, lo, hi))
					MulAddIntoWith(nil, acc, RowsView(a, lo, hi), b)
					check("MulAdd "+name, RowsView(add, lo, hi), acc)
					acc = CloneWith(nil, RowsView(base, lo, hi))
					MulSubIntoWith(nil, acc, RowsView(a, lo, hi), b)
					check("MulSub "+name, RowsView(sub, lo, hi), acc)
				})
				eachPiece(c.n, func(lo, hi int) {
					name := fmt.Sprintf("%s cols [%d,%d)", shape, lo, hi)
					got := NewDense(c.m, hi-lo)
					MulIntoWith(nil, got, a, ColsView(b, lo, hi))
					check("Mul "+name, ColsView(mul, lo, hi), got)
					MulTIntoWith(nil, got, at, ColsView(b, lo, hi))
					check("MulT "+name, ColsView(mulT, lo, hi), got)
					acc := CloneWith(nil, ColsView(base, lo, hi))
					MulAddIntoWith(nil, acc, a, ColsView(b, lo, hi))
					check("MulAdd "+name, ColsView(add, lo, hi), acc)
					acc = CloneWith(nil, ColsView(base, lo, hi))
					MulSubIntoWith(nil, acc, a, ColsView(b, lo, hi))
					check("MulSub "+name, ColsView(sub, lo, hi), acc)
					// Gram columns [lo, hi) are xᵀ·x[:, lo:hi]; rows
					// follow by symmetry.
					g := NewDense(c.n, hi-lo)
					MulTIntoWith(nil, g, x, ColsView(x, lo, hi))
					check("Gram "+name, ColsView(gram, lo, hi), g)
				})
			}
			t.Logf("%d of %d pieces differ from their one-shot product", differ, pieces)
		})
	}
}
