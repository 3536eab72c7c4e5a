package dmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// TestDriftGroundTruth holds DriftWith to closed forms. A real mode
// (real φ, ψ and b) reconstructs as φ·b·e^{ψt}, so when its amplitude
// moves from b to b′ the drift over times tₖ is
// |b − b′|·‖φ‖·√(Σₖ e^{2ψtₖ}), and when ψ moves to ψ′ as well it is
// ‖φ‖·√(Σₖ (b·e^{ψtₖ} − b′·e^{ψ′tₖ})²). Each case also carries a complex
// conjugate pair present in both sets (in another order), which must
// drop out, and each set against itself must give exactly 0.
func TestDriftGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const p, n, dt = 37, 60, 0.5
	phi := make([]complex128, p)
	var norm2 float64
	for i := range phi {
		v := rng.NormFloat64()
		phi[i] = complex(v, 0)
		norm2 += v * v
	}
	times := make([]float64, n)
	for k := range times {
		times[k] = float64(k) * dt
	}
	pair := make([]Mode, 2)
	for j := range pair {
		pair[j].Phi = make([]complex128, p)
	}
	for i := 0; i < p; i++ {
		v := complex(rng.NormFloat64(), rng.NormFloat64())
		pair[0].Phi[i], pair[1].Phi[i] = v, cmplx.Conj(v)
	}
	pair[0].Psi, pair[0].Amp = complex(-0.03, 0.4), complex(1.2, -0.7)
	pair[1].Psi, pair[1].Amp = cmplx.Conj(pair[0].Psi), cmplx.Conj(pair[0].Amp)

	const psi, psi2, b, b2 = -0.01, -0.02, 2.5, 1.7
	var sumE, sumD float64
	for _, tk := range times {
		sumE += math.Exp(2 * psi * tk)
		d := b*math.Exp(psi*tk) - b2*math.Exp(psi2*tk)
		sumD += d * d
	}
	cases := []struct {
		name string
		psi2 float64
		want float64
	}{
		{"amplitude", psi, math.Abs(b-b2) * math.Sqrt(norm2) * math.Sqrt(sumE)},
		{"amplitude and exponent", psi2, math.Sqrt(norm2) * math.Sqrt(sumD)},
	}

	ws := compute.NewWorkspace()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			old := []Mode{{Phi: phi, Psi: complex(psi, 0), Amp: complex(b, 0)}, pair[0], pair[1]}
			cur := []Mode{pair[1], {Phi: phi, Psi: complex(c.psi2, 0), Amp: complex(b2, 0)}, pair[0]}
			got := DriftWith(nil, ws, old, cur, times)
			if rel := math.Abs(got-c.want) / c.want; !(rel <= 1e-12) {
				t.Fatalf("drift %v, closed form %v: relative gap %g", got, c.want, rel)
			}
			if d := DriftWith(nil, ws, old, old, times); d != 0 {
				t.Fatalf("a mode set against itself drifts by %v, want exactly 0", d)
			}
			if d := DriftWith(nil, ws, cur, cur, times); d != 0 {
				t.Fatalf("a mode set against itself drifts by %v, want exactly 0", d)
			}
		})
	}
}
