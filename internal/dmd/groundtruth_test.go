package dmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
)

// dampedMixture returns a noise-free p×t mixture of damped sinusoids and
// one pure decay, lifted through a random orthonormal p×r map, with the
// closed-form discrete eigenvalues λ = e^{(σ ± 2πif)Δt} of its r latent
// modes.
func dampedMixture(rng *rand.Rand, p, t int, dt float64) (*mat.Dense, []complex128) {
	type comp struct{ f, sigma float64 }
	comps := []comp{{0.2, -0.05}, {0.7, -0.1}, {1.5, 0}}
	const decay = -0.2 // the non-oscillating component
	r := 2*len(comps) + 1
	lift := mat.QRFactor(randDense(rng, p, r)).Q
	data := mat.NewDense(p, t)
	var lams []complex128
	addLatent := func(col int, x func(tt float64) float64) {
		for k := 0; k < t; k++ {
			v := x(float64(k) * dt)
			for i := 0; i < p; i++ {
				data.Data[i*t+k] += lift.At(i, col) * v
			}
		}
	}
	for ci, c := range comps {
		om := 2 * math.Pi * c.f
		lam := cmplx.Exp(complex(c.sigma*dt, om*dt))
		lams = append(lams, lam, cmplx.Conj(lam))
		amp, ph := 1+rng.Float64(), 2*math.Pi*rng.Float64()
		addLatent(2*ci, func(tt float64) float64 { return amp * math.Exp(c.sigma*tt) * math.Cos(om*tt+ph) })
		addLatent(2*ci+1, func(tt float64) float64 { return amp * math.Exp(c.sigma*tt) * math.Sin(om*tt+ph) })
	}
	lams = append(lams, complex(math.Exp(decay*dt), 0))
	addLatent(r-1, func(tt float64) float64 { return 2 * math.Exp(decay*tt) })
	return data, lams
}

// TestModeSpaceFitGroundTruth checks the mode-space DMD against closed-form
// dynamics rather than against an earlier code path: on a noise-free
// damped-sinusoid mixture every eigenvalue is recovered to 1e-10, the
// fitted model reproduces the data to 1e-9 relative (full-history and
// windowed amplitude fits), and the ρ-filtered entry point returns exactly
// the full call's modes that pass IsSlow.
func TestModeSpaceFitGroundTruth(t *testing.T) {
	const dt, cols = 0.1, 80
	for _, p := range []int{600, 12} {
		rng := rand.New(rand.NewSource(int64(p)))
		data, lams := dampedMixture(rng, p, cols, dt)
		times := make([]float64, cols)
		for k := range times {
			times[k] = float64(k) * dt
		}
		// Window 40: the slowest-decaying envelope keeps well above the
		// mass floor, so no mode is zeroed.
		for _, win := range []int{0, 40} {
			opts := Options{DT: dt, Rank: len(lams), AmplitudeWindow: win}
			full, err := Compute(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Modes) != len(lams) || full.Rank != len(lams) {
				t.Fatalf("p=%d win=%d: %d modes at rank %d, want %d", p, win, len(full.Modes), full.Rank, len(lams))
			}
			for _, want := range lams {
				best := math.Inf(1)
				for _, m := range full.Modes {
					best = math.Min(best, cmplx.Abs(m.Lambda-want))
				}
				if best > 1e-10 {
					t.Fatalf("p=%d win=%d: λ=%v recovered only to %g", p, win, want, best)
				}
			}
			if rel := mat.Sub(full.Reconstruct(times), data).FrobNorm() / data.FrobNorm(); rel > 1e-9 {
				t.Fatalf("p=%d win=%d: ‖X − X̂‖/‖X‖ = %g", p, win, rel)
			}

			const rho = 0.5 // keeps the decay and the 0.2-cycle pair
			slow, err := ComputeSlow(data, opts, rho)
			if err != nil {
				t.Fatal(err)
			}
			if slow.Rank != len(full.Modes) {
				t.Fatalf("p=%d win=%d: filtered rank %d, full call has %d modes", p, win, slow.Rank, len(full.Modes))
			}
			var want []Mode
			for _, m := range full.Modes {
				if IsSlow(m.Psi, rho) {
					want = append(want, m)
				}
			}
			if len(want) != 3 || len(slow.Modes) != len(want) {
				t.Fatalf("p=%d win=%d: %d slow modes, full call has %d passing ρ (want 3)", p, win, len(slow.Modes), len(want))
			}
			for j, m := range slow.Modes {
				w := want[j]
				if m.Lambda != w.Lambda || m.Amp != w.Amp {
					t.Fatalf("p=%d win=%d mode %d: (λ, b) = (%v, %v), full call (%v, %v)", p, win, j, m.Lambda, m.Amp, w.Lambda, w.Amp)
				}
				var diff, norm float64
				for i, c := range m.Phi {
					diff = math.Max(diff, cmplx.Abs(c-w.Phi[i]))
					norm = math.Max(norm, cmplx.Abs(w.Phi[i]))
				}
				if diff > 1e-12*norm {
					t.Fatalf("p=%d win=%d mode %d: Φ differs by %g (scale %g)", p, win, j, diff, norm)
				}
			}
		}
	}
}
