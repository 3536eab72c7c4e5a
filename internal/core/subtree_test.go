package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
)

// readmeOpts are the README's streaming options.
var readmeOpts = Options{DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8}

// streamedResiduals streams p SC-Log sensors (seed columns, then batches
// of 40) through an analyzer with the README options and returns it with
// the level-1 residual of each batch's window, as the batch's subtree
// fit saw it, and each window's first column.
func streamedResiduals(tb testing.TB, p, seed, batches int) (*Incremental, []*mat.Dense, []int) {
	tb.Helper()
	const batch = 40
	data := sclogData(p, seed+batches*batch, 1)
	inc := NewIncremental(readmeOpts)
	if err := inc.InitialFit(data.ColSlice(0, seed)); err != nil {
		tb.Fatal(err)
	}
	var resids []*mat.Dense
	var starts []int
	for lo := seed; lo < data.C; lo += batch {
		if _, err := inc.PartialFit(data.ColSlice(lo, lo+batch)); err != nil {
			tb.Fatal(err)
		}
		inc.mu.Lock()
		r := inc.residualOf(lo, lo+batch)
		resids = append(resids, r.Clone())
		mat.PutDense(inc.ws, r)
		inc.mu.Unlock()
		starts = append(starts, lo)
	}
	return inc, resids, starts
}

// pSpace is rc's recursion with the factor route off: a recursion that
// already counts the windows' P rows never factors again, and at
// dmd.Options.Rows = P its window fits are those of rows 0, so this is
// the P-space recursion throughout.
func pSpace(rc recursion, p int) recursion {
	rc.rows = p
	return rc
}

// subtreeGaps holds the worst relative gaps between two subtrees.
type subtreeGaps struct{ lambda, amp, phi, power float64 }

// compareSubtrees holds got to want: the same windows, levels, strides,
// NumAllModes and kept counts, every mode's bits equal when bitwise, and
// otherwise λ within 1e-10, amplitudes within 1e-9, Φ within 1e-9 (max
// norm) and Power within 1e-9, all relative — the bounds of
// TestRSpaceWindowFitMatchesSVDOfX. It returns the worst gaps.
func compareSubtrees(t *testing.T, name string, got, want []*Node, bitwise bool) subtreeGaps {
	t.Helper()
	rel := func(a, b complex128) float64 {
		if n := cmplx.Abs(b); n > 0 {
			return cmplx.Abs(a-b) / n
		}
		return cmplx.Abs(a - b)
	}
	var g subtreeGaps
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, P-space route %d", name, len(got), len(want))
	}
	for i, w := range want {
		n := got[i]
		if n.Level != w.Level || n.Start != w.Start || n.End != w.End || n.Stride != w.Stride ||
			n.NumAllModes != w.NumAllModes || len(n.Modes) != len(w.Modes) {
			t.Fatalf("%s node %d: L%d [%d,%d) stride %d rank %d with %d modes, P-space L%d [%d,%d) stride %d rank %d with %d",
				name, i, n.Level, n.Start, n.End, n.Stride, n.NumAllModes, len(n.Modes),
				w.Level, w.Start, w.End, w.Stride, w.NumAllModes, len(w.Modes))
		}
		for j, wm := range w.Modes {
			m := n.Modes[j]
			if len(m.Phi) != len(wm.Phi) {
				t.Fatalf("%s node %d mode %d: |Φ| = %d, P-space %d", name, i, j, len(m.Phi), len(wm.Phi))
			}
			if bitwise {
				if m.Lambda != wm.Lambda || m.Psi != wm.Psi || m.Amp != wm.Amp || m.Power != wm.Power || m.Freq != wm.Freq {
					t.Fatalf("%s node %d mode %d: (λ, b, ‖φ‖²) = (%v, %v, %v), P-space (%v, %v, %v)",
						name, i, j, m.Lambda, m.Amp, m.Power, wm.Lambda, wm.Amp, wm.Power)
				}
				for k, c := range wm.Phi {
					if m.Phi[k] != c {
						t.Fatalf("%s node %d mode %d: Φ[%d] = %v, P-space %v", name, i, j, k, m.Phi[k], c)
					}
				}
				continue
			}
			var diff, norm float64
			for k, c := range wm.Phi {
				diff = math.Max(diff, cmplx.Abs(m.Phi[k]-c))
				norm = math.Max(norm, cmplx.Abs(c))
			}
			gap := subtreeGaps{rel(m.Lambda, wm.Lambda), rel(m.Amp, wm.Amp), diff / norm, math.Abs(m.Power-wm.Power) / wm.Power}
			if !(gap.lambda <= 1e-10 && gap.amp <= 1e-9 && gap.phi <= 1e-9 && gap.power <= 1e-9) {
				t.Fatalf("%s node %d (L%d [%d,%d)) mode %d: relative gaps λ %g, b %g, Φ %g, ‖φ‖² %g",
					name, i, n.Level, n.Start, n.End, j, gap.lambda, gap.amp, gap.phi, gap.power)
			}
			g = subtreeGaps{math.Max(g.lambda, gap.lambda), math.Max(g.amp, gap.amp), math.Max(g.phi, gap.phi), math.Max(g.power, gap.power)}
		}
	}
	return g
}

// routes fits resid's level-2 subtree on the factor route (which must
// be taken exactly when factored is set) and on the P-space recursion,
// each on its own copy, and compares them.
func routes(t *testing.T, name string, rc recursion, resid *mat.Dense, start int, factored bool) subtreeGaps {
	t.Helper()
	in := resid.Clone()
	got, ok, err := rc.factorSubtree(in, 2, start)
	if err != nil {
		t.Fatal(err)
	}
	if ok != factored {
		t.Fatalf("%s: factor route taken = %v, want %v", name, ok, factored)
	}
	for i, v := range in.Data {
		if v != resid.Data[i] {
			t.Fatalf("%s: the factor route mutated the residual", name)
		}
	}
	if !ok {
		if got, err = rc.splitDecompose(in, 2, start); err != nil {
			t.Fatal(err)
		}
	}
	want, err := pSpace(rc, resid.R).splitHalves(resid.Clone(), 2, start)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 || numModes(want) == 0 {
		t.Fatalf("%s: the P-space subtree has %d nodes and %d modes; the comparison would be vacuous", name, len(want), numModes(want))
	}
	return compareSubtrees(t, name, got, want, !factored)
}

// TestFactorSubtreeMatchesPSpace holds the one-factor subtree fit to the
// P-space recursion on the residual windows of streamed SC-Log batches
// at P = 4392, 200 and 96, where every window takes the factor route:
// the same nodes and counts, λ within 1e-10, amplitudes and Φ within
// 1e-9. Residuals the route must refuse — a duplicated column, a zero
// column, and a near-duplicate whose Cholesky succeeds but whose
// κ₁(R₁) exceeds factorMaxCond, and the P = 48 window, shorter than
// QRPrecondRatio·40 — take the P-space recursion bit for bit.
func TestFactorSubtreeMatchesPSpace(t *testing.T) {
	cases := []struct{ p, seed, batches int }{{4392, 720, 3}, {200, 2000, 4}, {96, 1000, 4}, {48, 512, 2}}
	for _, c := range cases {
		t.Run(fmt.Sprintf("P=%d", c.p), func(t *testing.T) {
			if testing.Short() && c.p > 1000 {
				t.Skip("Theta-width stream skipped in -short")
			}
			inc, resids, starts := streamedResiduals(t, c.p, c.seed, c.batches)
			rc := recursion{opts: &inc.opts, eng: inc.eng, ws: inc.ws}
			tall := c.p >= 2*40
			var worst subtreeGaps
			kLo, kHi := math.Inf(1), 0.0
			for i, r := range resids {
				g := routes(t, fmt.Sprintf("window %d", i), rc, r, starts[i], tall)
				worst = subtreeGaps{math.Max(worst.lambda, g.lambda), math.Max(worst.amp, g.amp), math.Max(worst.phi, g.phi), math.Max(worst.power, g.power)}
				if rr, rinv := mat.CholeskyGramWith(nil, nil, r); rr != nil {
					k := norm1(rr) * norm1(rinv)
					kLo, kHi = math.Min(kLo, k), math.Max(kHi, k)
				}
			}
			t.Logf("%d windows, κ₁(R₁) %.0f–%.0f: worst relative gaps λ %.2g, b %.2g, Φ %.2g, ‖φ‖² %.2g",
				len(resids), kLo, kHi, worst.lambda, worst.amp, worst.phi, worst.power)
			if !tall {
				return
			}
			r := resids[0]
			dup, zero, near := r.Clone(), r.Clone(), r.Clone()
			for i := 0; i < r.R; i++ {
				dup.Set(i, 5, dup.At(i, 4))
				zero.Set(i, 7, 0)
			}
			// Column 5 becomes column 4 plus a random vector of 1e-5 of its
			// norm: κ grows past 1e3 while the Gram's pivots stay far above
			// its rounding.
			rng := rand.New(rand.NewSource(int64(c.p)))
			g := make([]float64, r.R)
			var gn, cn float64
			for i := range g {
				g[i] = rng.NormFloat64()
				gn += g[i] * g[i]
				cn += r.At(i, 4) * r.At(i, 4)
			}
			for i := range g {
				near.Set(i, 5, r.At(i, 4)+1e-5*math.Sqrt(cn/gn)*g[i])
			}
			rr, rinv := mat.CholeskyGramWith(nil, nil, near)
			if rr == nil {
				t.Fatal("near-duplicate residual: Cholesky broke down; it must fail the κ test instead")
			}
			if k := norm1(rr) * norm1(rinv); !(k > factorMaxCond) {
				t.Fatalf("near-duplicate residual: κ₁(R₁) = %g passes the κ test", k)
			}
			for _, d := range []struct {
				name string
				m    *mat.Dense
			}{{"duplicated column", dup}, {"zero column", zero}, {"near-duplicate column", near}} {
				routes(t, d.name, rc, d.m, starts[0], false)
			}
		})
	}
}

// TestStreamedSubtreeGroundTruth streams noise-free data at P = 600
// through PartialFit and checks the new segment's level-2 eigenvalues
// against their closed forms. The stream holds one slow decay, along
// one spatial direction, which the level-1 fit takes exactly; the
// measured batch adds, within each level-2 window, one planted damped
// sinusoid along two further directions — a different one per window
// (TestModeSpaceFitGroundTruth's mixture, lifted by a random orthonormal
// map). No level-1 grid column falls in that batch, so its residual is
// the planted pairs up to the level-1 fit's roundoff. Each window's
// segment node must hold both
// of its planted λ to within 1e-10. The planted windows close their
// Krylov sequence, so the residual is rank-deficient: the factor route
// must refuse it, and the fit comes from the P-space recursion. SVHT is
// off: on windows this clean the SVD returns little more than the
// signal's singular values, too few for SVHT's median to be noise.
func TestStreamedSubtreeGroundTruth(t *testing.T) {
	const (
		p, seed, batch = 600, 1280, 40
		dt, decay      = 1.0, -0.001
	)
	opts := readmeOpts
	opts.DT, opts.UseSVHT = dt, false
	rng := rand.New(rand.NewSource(600))
	basis := mat.NewDense(p, 5)
	for i := range basis.Data {
		basis.Data[i] = rng.NormFloat64()
	}
	lift := mat.QRFactor(basis).Q
	type planted struct{ f, sigma float64 }
	windows := []planted{{0.04, -0.01}, {0.06, -0.02}} // slow at level 2: |ψ|/2π ≤ 2/20
	total := seed + 2*batch
	data := mat.NewDense(p, total)
	for k := 0; k < total; k++ {
		v := 3 * math.Exp(decay*float64(k)*dt)
		for i := 0; i < p; i++ {
			data.Data[i*total+k] = lift.At(i, 0) * v
		}
	}
	lo := seed + batch // the measured batch; the level-1 grid skips it
	var want [][]complex128
	for w, c := range windows {
		om := 2 * math.Pi * c.f
		lam := cmplx.Exp(complex(c.sigma*dt, om*dt))
		want = append(want, []complex128{lam, cmplx.Conj(lam)})
		for k := 0; k < batch/2; k++ {
			tt := float64(k) * dt
			x, y := math.Exp(c.sigma*tt)*math.Cos(om*tt+1), math.Exp(c.sigma*tt)*math.Sin(om*tt+1)
			col := lo + w*batch/2 + k
			for i := 0; i < p; i++ {
				data.Data[i*total+col] += lift.At(i, 1+2*w)*x + lift.At(i, 2+2*w)*y
			}
		}
	}

	inc := NewIncremental(opts)
	if err := inc.InitialFit(data.ColSlice(0, seed)); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		st, err := inc.PartialFit(data.ColSlice(seed+b*batch, seed+(b+1)*batch))
		if err != nil {
			t.Fatal(err)
		}
		if b == 1 && st.NewSamples != 0 {
			t.Fatalf("the measured batch added %d level-1 grid columns; the test lost its shape", st.NewSamples)
		}
	}
	inc.mu.Lock()
	resid := inc.residualOf(lo, lo+batch)
	_, factored, err := recursion{opts: &inc.opts, eng: inc.eng, ws: inc.ws}.factorSubtree(resid, 2, lo)
	mat.PutDense(inc.ws, resid)
	seg := inc.segments[len(inc.segments)-1]
	inc.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if factored {
		t.Fatal("a rank-deficient residual took the factor route")
	}
	if seg.start != lo {
		t.Fatalf("last segment starts at %d, want %d", seg.start, lo)
	}
	for w, lams := range want {
		start := lo + w*batch/2
		var node *Node
		for _, nd := range seg.nodes {
			if nd.Level == 2 && nd.Start == start {
				node = nd
			}
		}
		if node == nil {
			t.Fatalf("no level-2 node starts at %d", start)
		}
		for _, lam := range lams {
			best := math.Inf(1)
			for _, m := range node.Modes {
				best = math.Min(best, cmplx.Abs(m.Lambda-lam))
			}
			if !(best <= 1e-10) {
				t.Fatalf("window %d: planted λ = %v recovered only to %g (%d modes)", w, lam, best, len(node.Modes))
			}
			t.Logf("window %d: planted λ = %.6f recovered to %.2g", w, lam, best)
		}
	}
}

// BenchmarkSubtree times one level-2 subtree fit (splitDecompose) of a
// streamed SC-Log batch's 40-column residual at the workload heights,
// the README options and a warmed workspace. The residual is refreshed
// outside the timer, since the P-space route consumes it; each height's
// stream is set up once, not once per b.N probe.
func BenchmarkSubtree(b *testing.B) {
	for _, c := range []struct{ p, seed int }{{4392, 720}, {200, 2000}, {48, 512}} {
		var (
			rc    recursion
			src   *mat.Dense
			start int
		)
		b.Run(fmt.Sprintf("%dx40", c.p), func(b *testing.B) {
			if src == nil {
				inc, resids, starts := streamedResiduals(b, c.p, c.seed, 1)
				rc = recursion{opts: &inc.opts, eng: inc.eng, ws: inc.ws}
				src, start = resids[0], starts[0]
			}
			work := src.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(work.Data, src.Data)
				b.StartTimer()
				if _, err := rc.splitDecompose(work, 2, start); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
