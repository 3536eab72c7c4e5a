package svd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
)

// refAddRows is the row update as it ran before AddRows became the
// column update on swapped factors: its own projection L = B·V, residual
// H = B − L·Vᵀ with a transposed QR, the core [Σ 0; L Rhᵀ] factored as
// its transpose, the rank cut, and the rotations U' = [U 0; 0 I]·Uc and
// V' = [V Qh]·Vc, over chunks of at most b.C rows. It is the reference
// AddRows is held to.
func refAddRows(inc *Incremental, b *mat.Dense) {
	if b.R > b.C {
		for i := 0; i < b.R; i += b.C {
			refAddRowChunk(inc, b.RowSlice(i, min(i+b.C, b.R)))
		}
		return
	}
	refAddRowChunk(inc, b)
}

func refAddRowChunk(inc *Incremental, b *mat.Dense) {
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

	// Kᵀ = [Σ Lᵀ; 0 Rh] has the column update's core shape:
	// Kᵀ = Uc Σ Vcᵀ ⇒ K = Vc Σ Ucᵀ.
	lt := mat.TWith(ws, l)
	mat.PutDense(ws, l)
	core := brandCore(ws, inc.S, lt, qr.R)
	mat.PutDense(ws, lt)

	rank := truncRank(core.S, inc.MaxRank, inc.DropTol)
	uc := mat.ColSliceWith(ws, core.V, 0, rank) // (q+k)×r
	vc := mat.ColSliceWith(ws, core.U, 0, rank) // (q+k)×r
	mat.PutDense(ws, core.U)
	mat.PutDense(ws, core.V)

	// U' = [U·Uc_top ; Uc_bot].
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
	inc.tick()
}

// maxAbsDiff is max |a − b| over two same-shape matrices, and max |ref|.
func maxAbsDiff(a, ref *mat.Dense) (diff, scale float64) {
	for i := 0; i < ref.R; i++ {
		ar, rr := a.Row(i), ref.Row(i)
		for j, x := range rr {
			diff = math.Max(diff, math.Abs(ar[j]-x))
			scale = math.Max(scale, math.Abs(x))
		}
	}
	return diff, scale
}

// TestAddRowsMatchesRowReference holds AddRows to the row step kept in
// refAddRows: two decompositions seeded alike absorb the same 12 row
// blocks, and after every block the spectra agree within 1e-13·σ₁ and
// both bases within 1e-10·max|ref|. The schedule crosses the every-8th
// re-orthogonalization, so it runs on U on the same count as before.
func TestAddRowsMatchesRowReference(t *testing.T) {
	cases := []struct {
		m, t, k, maxRank int
	}{
		{300, 40, 20, 0},
		{1000, 120, 48, 48},
		{64, 20, 12, 0},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%dx%d+%d", c.m, c.t, c.k)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.m)))
			seed := randDense(rng, c.m, c.t)
			got := NewIncrementalWith(nil, nil, seed, c.maxRank)
			ref := NewIncrementalWith(nil, nil, seed, c.maxRank)
			var worstS, worstUV float64
			for step := 0; step < 12; step++ {
				b := randDense(rng, c.k, c.t)
				got.AddRows(b)
				refAddRows(ref, b)
				if got.Rank() != ref.Rank() || got.Rows() != ref.Rows() {
					t.Fatalf("block %d: rank/rows %d/%d, reference %d/%d",
						step, got.Rank(), got.Rows(), ref.Rank(), ref.Rows())
				}
				for i, s := range ref.S {
					d := math.Abs(got.S[i]-s) / ref.S[0]
					worstS = math.Max(worstS, d)
					if d > 1e-13 {
						t.Fatalf("block %d: σ[%d] = %v, reference %v (%.3g·σ₁)", step, i, got.S[i], s, d)
					}
				}
				for _, f := range []struct {
					name     string
					got, ref *mat.Dense
				}{{"U", got.U, ref.U}, {"V", got.V, ref.V}} {
					d, scale := maxAbsDiff(f.got, f.ref)
					worstUV = math.Max(worstUV, d/scale)
					if d > 1e-10*scale {
						t.Fatalf("block %d: %s differs by %.3g (max|ref| %.3g)", step, f.name, d, scale)
					}
				}
			}
			t.Logf("worst σ gap %.3g·σ₁, worst basis gap %.3g·max|ref|", worstS, worstUV)
		})
	}
}
