package svd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// brandCase is one structured core K = [diag(s) l; 0 r].
type brandCase struct {
	name string
	s    []float64
	l, r *mat.Dense
}

// dense returns K itself.
func (c brandCase) dense() *mat.Dense {
	q, k := len(c.s), c.r.R
	kk := mat.NewDense(q+k, q+k)
	for i := 0; i < q; i++ {
		kk.Set(i, i, c.s[i])
		copy(kk.Row(i)[q:], c.l.Row(i))
	}
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			kk.Set(q+i, q+j, c.r.At(i, j))
		}
	}
	return kk
}

// brandCases builds the oracle inputs for one (q, k): a random core; a
// rank-saturated one whose residual block is rounding noise (the
// long-stream case, where every new column lies in the retained
// subspace); zero entries in S; repeated singular values; an all-zero
// residual block; and tightly clustered singular values.
func brandCases(rng *rand.Rand, q, k int) []brandCase {
	spectrum := func() []float64 {
		s := make([]float64, q)
		for i := range s {
			s[i] = 1e3 * math.Pow(0.8, float64(i)) * (1 + 0.1*rng.Float64())
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(s)))
		return s
	}
	upper := func(scale float64) *mat.Dense {
		r := mat.NewDense(k, k)
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				r.Set(i, j, scale*rng.NormFloat64())
			}
		}
		return r
	}
	block := func(scale float64) *mat.Dense {
		l := mat.NewDense(q, k)
		for i := range l.Data {
			l.Data[i] = scale * rng.NormFloat64()
		}
		return l
	}

	var out []brandCase
	s := spectrum()
	out = append(out, brandCase{"random", s, block(100), upper(100)})

	s = spectrum()
	out = append(out, brandCase{"rank-saturated", s, block(10), upper(1e-13 * s[0])})

	s = spectrum()
	for i := 1; i < q; i += 3 {
		s[i] = 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	out = append(out, brandCase{"zero-sigma", s, block(50), upper(50)})

	s = spectrum()
	for i := 1; i < q; i += 2 {
		s[i] = s[i-1]
	}
	out = append(out, brandCase{"repeated-sigma", s, block(50), upper(50)})

	s = spectrum()
	out = append(out, brandCase{"zero-residual", s, block(50), mat.NewDense(k, k)})

	// Poles 1e-13 apart relative (above the deflation tolerance) with
	// small weights: roots crowd their poles, where the vectors lean on
	// the Löwner-recomputed weights.
	s = make([]float64, q)
	for i := range s {
		s[i] = 1e3 * (1 + 1e-13*float64(q-i))
	}
	out = append(out, brandCase{"clustered", s, block(1e-2), upper(1e-2)})
	return out
}

// orthErr returns ‖MᵀM − I‖_F.
func orthErr(m *mat.Dense) float64 {
	g := mat.MulT(m, m)
	for i := 0; i < g.R; i++ {
		g.Set(i, i, g.At(i, i)-1)
	}
	return g.FrobNorm()
}

// checkFactors asserts K ≈ U·diag(σ)·Vᵀ with orthonormal U and V, and
// returns ‖K − UΣVᵀ‖_F/‖K‖_F.
func checkFactors(t *testing.T, ctx string, kk, u *mat.Dense, sig []float64, v *mat.Dense) float64 {
	t.Helper()
	n := float64(kk.R)
	if e := orthErr(u); e > 1e-13*n {
		t.Errorf("%s: ‖UᵀU−I‖ = %.3g", ctx, e)
	}
	if e := orthErr(v); e > 1e-13*n {
		t.Errorf("%s: ‖VᵀV−I‖ = %.3g", ctx, e)
	}
	us := u.Clone()
	for i := 0; i < us.R; i++ {
		for j := range sig[:us.C] {
			us.Set(i, j, us.At(i, j)*sig[j])
		}
	}
	knorm := kk.FrobNorm()
	rel := mat.Sub(kk, mat.Mul(us, v.T())).FrobNorm() / knorm
	if rel > 1e-14*n {
		t.Errorf("%s: ‖K − UΣVᵀ‖/‖K‖ = %.3g", ctx, rel)
	}
	for i := 1; i < len(sig); i++ {
		if sig[i] > sig[i-1] {
			t.Errorf("%s: σ not descending at %d", ctx, i)
		}
	}
	return rel
}

// TestBrandCoreOracle checks the secular-equation core against the dense
// Jacobi SVD and against K itself, over every structured form, for the
// column update's shape and for AddRows' transposed one.
func TestBrandCoreOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ws := compute.NewWorkspace()
	for _, q := range []int{5, 48, 64} {
		for _, k := range []int{1, 2, 8} {
			for _, c := range brandCases(rng, q, k) {
				ctx := fmt.Sprintf("q=%d k=%d %s", q, k, c.name)
				kk := c.dense()

				// The full factors reproduce K.
				u, sig, v := brandCoreFull(ws, c.s, c.l, c.r)
				checkFactors(t, ctx+" full", kk, u, sig, v)
				mat.PutDense(ws, u)
				mat.PutDense(ws, v)
				ws.PutF64(sig)

				// The retained triplets match Jacobi's.
				got := brandCore(ws, c.s, c.l, c.r)
				ref := jacobiSVD(kk)
				if got.Rank() != ref.Rank() {
					t.Errorf("%s: rank %d, Jacobi %d", ctx, got.Rank(), ref.Rank())
					continue
				}
				// Relative agreement, plus the ε·‖K‖ floor below which no
				// backward-stable SVD resolves a value.
				for i := range ref.S {
					if d := math.Abs(got.S[i] - ref.S[i]); d > 1e-13*ref.S[i]+1e-15*ref.S[0] {
						t.Errorf("%s: σ[%d] = %v, Jacobi %v (rel %.3g)", ctx, i, got.S[i], ref.S[i], d/ref.S[i])
						break
					}
				}
				n := float64(kk.R)
				if e := orthErr(got.U); e > 1e-13*n {
					t.Errorf("%s: retained ‖UᵀU−I‖ = %.3g", ctx, e)
				}
				if e := orthErr(got.V); e > 1e-13*n {
					t.Errorf("%s: retained ‖VᵀV−I‖ = %.3g", ctx, e)
				}
				got.Release(ws)

				// AddRows' core [Σ 0; L Rhᵀ] is Kᵀ: the same factors swapped.
				kt := kk.T()
				u, sig, v = brandCoreFull(ws, c.s, c.l, c.r)
				checkFactors(t, ctx+" transposed", kt, v, sig, u)
				mat.PutDense(ws, u)
				mat.PutDense(ws, v)
				ws.PutF64(sig)
			}
		}
	}
}

// TestBrandCoreZero: an all-zero core keeps one zero triplet with unit
// vectors, as the Jacobi path keeps one zero triplet.
func TestBrandCoreZero(t *testing.T) {
	ws := compute.NewWorkspace()
	got := brandCore(ws, make([]float64, 4), mat.NewDense(4, 2), mat.NewDense(2, 2))
	if got.Rank() != 1 || got.S[0] != 0 {
		t.Fatalf("zero core: σ = %v, want one zero triplet", got.S)
	}
	if e := orthErr(got.U) + orthErr(got.V); e > 1e-15 {
		t.Fatalf("zero core vectors not orthonormal: %.3g", e)
	}
}

// TestBrandCoreDriftLongStream: 10,000 rank-saturated single-column
// updates (m = 48, rank cap 48 — every new column lies in the retained
// subspace up to rounding, the long-stream case) must keep both bases
// orthonormal. U is re-orthogonalized every DefaultReorthEvery updates,
// V never is, so ‖VᵀV−I‖ measures the core's own accumulated error.
func TestBrandCoreDriftLongStream(t *testing.T) {
	if testing.Short() || raceEnabled {
		// Single-goroutine arithmetic: the race detector has nothing to
		// check and slows the 10,000 basis rotations about 14×.
		t.Skip("long single-goroutine stream")
	}
	const m, updates = 48, 10000
	rng := rand.New(rand.NewSource(48))
	// A fixed rank-48 mixing with a decaying spectrum; each column is a
	// fresh random combination, so the stream saturates the rank at once.
	basis := randDense(rng, m, m)
	for j := 0; j < m; j++ {
		f := math.Pow(0.85, float64(j))
		for i := 0; i < m; i++ {
			basis.Set(i, j, basis.At(i, j)*f)
		}
	}
	column := func() *mat.Dense {
		x := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return mat.NewDenseData(m, 1, mat.MulVec(basis, x))
	}
	first := mat.NewDense(m, m)
	for j := 0; j < m; j++ {
		first.SetCol(j, column().Data)
	}
	inc := NewIncremental(first, m)
	for i := 0; i < updates; i++ {
		inc.Update(column())
	}
	if inc.Rank() != m {
		t.Fatalf("rank %d, want the saturated %d", inc.Rank(), m)
	}
	eu, ev := orthErr(inc.U), orthErr(inc.V)
	t.Logf("after %d updates: ‖UᵀU−I‖ = %.3g, ‖VᵀV−I‖ = %.3g", updates, eu, ev)
	if eu > 1e-12 || ev > 1e-12 {
		t.Fatalf("orthogonality drift: ‖UᵀU−I‖ = %.3g, ‖VᵀV−I‖ = %.3g (bound 1e-12)", eu, ev)
	}
}

// BenchmarkBrandCore times the longrun core shape — q = 48 retained
// triplets and one rank-saturated column — through the secular path and
// through the dense Jacobi it replaced.
func BenchmarkBrandCore(b *testing.B) {
	c := brandCases(rand.New(rand.NewSource(7)), 48, 1)[1]
	ws := compute.NewWorkspace()
	b.Run("secular", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			brandCore(ws, c.s, c.l, c.r).Release(ws)
		}
	})
	b.Run("jacobi", func(b *testing.B) {
		kk := c.dense()
		b.ReportAllocs()
		for b.Loop() {
			jacobiSVDWS(nil, kk, ws, true).Release(ws)
		}
	})
}
