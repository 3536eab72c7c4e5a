package core_test

import (
	"math"
	"math/cmplx"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/telemetry"
)

// scalarTreeRecon is the per-node scalar evaluator Tree.Reconstruct ran
// before it summed its nodes through the streamed ReconError's routine:
// each node with a level ≤ maxLevel is evaluated alone into a fresh
// P×window matrix by the triple loop Σⱼ Re(φⱼ·e^{ψⱼtₖ}·bⱼ), tₖ = k·dt
// from the node's start, and then added into the output over the node's
// window. It is the reference the tests below hold the GEMM-tier sum to.
func scalarTreeRecon(tree *core.Tree, maxLevel int) *mat.Dense {
	out := mat.NewDense(tree.P, tree.T)
	for _, nd := range tree.Nodes {
		if nd.Level > maxLevel || len(nd.Modes) == 0 {
			continue
		}
		recon := mat.NewDense(tree.P, nd.Window())
		for _, m := range nd.Modes {
			for k := 0; k < nd.Window(); k++ {
				w := clampedExp(m.Psi, float64(k)*tree.Opts.DT) * m.Amp
				if w == 0 {
					continue
				}
				for i := 0; i < tree.P; i++ {
					recon.Data[i*recon.C+k] += real(m.Phi[i] * w)
				}
			}
		}
		for i := 0; i < tree.P; i++ {
			dst := out.Row(i)[nd.Start:nd.End]
			for k, v := range recon.Row(i) {
				dst[k] += v
			}
		}
	}
	return out
}

// clampedExp is e^{ψt} with the real exponent clamped as dmd clamps it.
func clampedExp(psi complex128, t float64) complex128 {
	re := real(psi) * t
	if re > 700 {
		re = 700
	}
	if re < -700 {
		return 0
	}
	return cmplx.Exp(complex(re, imag(psi)*t))
}

// dampedSinusoid is x_i(t) = c_i + a_i·e^{−γt}·cos(ωt + φ_i) sampled at
// t = k·dt: a closed-form signal of rank 3, one decaying oscillation and
// a constant per sensor.
func dampedSinusoid(p, t int, dt float64) *mat.Dense {
	const gamma, omega = 1e-3, 2 * math.Pi / 1500
	x := mat.NewDense(p, t)
	for i := 0; i < p; i++ {
		c, a, ph := 40+float64(i), 5+0.5*float64(i%7), 0.3*float64(i)
		for k := 0; k < t; k++ {
			tt := float64(k) * dt
			x.Data[i*t+k] = c + a*math.Exp(-gamma*tt)*math.Cos(omega*tt+ph)
		}
	}
	return x
}

// relFrob is ‖a − b‖_F / ‖b‖_F.
func relFrob(a, b *mat.Dense) float64 {
	return mat.Sub(a, b).FrobNorm() / b.FrobNorm()
}

// TestTreeReconstructMatchesScalarReference holds Tree.Reconstruct and
// every ReconstructLevels cut to the per-node scalar evaluator on SC-Log
// trees at P = 200 and Theta's P = 4392 and on a closed-form damped
// sinusoid. The two sums differ only in rounding: the GEMM tier forms
// Re(Φ)·Re(W) − Im(Φ)·Im(W) in another order than the complex products
// of the scalar loop. On those trees the relative Frobenius gap measures
// 1.5–1.9e-16 (t.Log prints it per case); the bound leaves a margin of
// several thousand.
func TestTreeReconstructMatchesScalarReference(t *testing.T) {
	sc := core.Options{
		DT: telemetry.ThetaEnv().SampleInterval, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true,
	}
	cases := []struct {
		name string
		data *mat.Dense
		opts core.Options
	}{
		{"sclog-200x2000", bench.SCLogData(200, 2000, 1), sc},
		{"sclog-4392x720", bench.SCLogData(4392, 720, 1), sc},
		// SVHT would keep only the dominant constant here; rank 3 keeps
		// the oscillation's conjugate pair, whose modes are complex.
		{"damped-64x1024", dampedSinusoid(64, 1024, 1), core.Options{DT: 1, MaxLevels: 4, MaxCycles: 2, Rank: 3}},
	}
	const tol = 1e-12
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.data.R > 1000 {
				t.Skip("Theta-width decomposition skipped in -short")
			}
			tree, err := core.Decompose(c.data, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tree.NumModes() == 0 {
				t.Fatal("tree has no modes; the comparison would be vacuous")
			}
			gap := relFrob(tree.Reconstruct(), scalarTreeRecon(tree, tree.MaxLevel()))
			t.Logf("%d nodes, %d modes: Reconstruct gap %.3g", len(tree.Nodes), tree.NumModes(), gap)
			if !(gap <= tol) {
				t.Fatalf("Reconstruct: relative gap %g to the scalar reference exceeds %g", gap, tol)
			}
			for lvl := 1; lvl <= tree.MaxLevel(); lvl++ {
				ref := scalarTreeRecon(tree, lvl)
				if g := relFrob(tree.ReconstructLevels(lvl), ref); !(g <= tol) {
					t.Fatalf("ReconstructLevels(%d): relative gap %g to the scalar reference exceeds %g", lvl, g, tol)
				}
			}
		})
	}
}
