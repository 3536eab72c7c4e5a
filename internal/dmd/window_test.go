package dmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// decomposeWindowed runs FromSVD on the same data with a given amplitude
// window. rank 0 defers to SVHT.
func decomposeWindowed(t *testing.T, data *mat.Dense, dt float64, win, rank int) *Decomposition {
	t.Helper()
	x := mat.ColSliceWith(nil, data, 0, data.C-1)
	s := svd.Compute(x)
	dec, err := FromSVD(s, data, Options{DT: dt, UseSVHT: rank == 0, Rank: rank, AmplitudeWindow: win})
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestAmplitudeWindowFullWidthBitIdentical: window ≥ T (or 0) must take
// exactly the unwindowed code path — the flat-horizon default contract.
func TestAmplitudeWindowFullWidthBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dt := 0.05
	data, _ := linearSystem(rng, 24, 160, []float64{0.4, 1.1}, []float64{-0.05, -0.1}, dt)
	full := decomposeWindowed(t, data, dt, 0, 0)
	for _, win := range []int{160, 161, 10_000} {
		w := decomposeWindowed(t, data, dt, win, 0)
		if len(w.Modes) != len(full.Modes) {
			t.Fatalf("win=%d: %d modes vs %d", win, len(w.Modes), len(full.Modes))
		}
		for j := range full.Modes {
			if w.Modes[j].Amp != full.Modes[j].Amp {
				t.Fatalf("win=%d mode %d: Amp %v != %v (must be bit-identical)",
					win, j, w.Modes[j].Amp, full.Modes[j].Amp)
			}
			if w.Modes[j].Lambda != full.Modes[j].Lambda {
				t.Fatalf("win=%d mode %d: Lambda differs", win, j)
			}
		}
	}
}

// TestAmplitudeWindowAgreesWithFull: a trailing window covering most of a
// stationary signal's history must reproduce the full-width amplitudes to
// a documented tolerance — the window drops redundant normal-equation
// rows, not information, when the dynamics are persistent.
func TestAmplitudeWindowAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dt := 0.05
	// Pure oscillators (no decay): every window sees the same dynamics.
	data, _ := linearSystem(rng, 24, 400, []float64{0.4, 1.1}, []float64{0, 0}, dt)
	full := decomposeWindowed(t, data, dt, 0, 4)
	win := decomposeWindowed(t, data, dt, 128, 4)
	if len(win.Modes) != len(full.Modes) {
		t.Fatalf("mode count changed under windowing: %d vs %d", len(win.Modes), len(full.Modes))
	}
	for j := range full.Modes {
		fa, wa := full.Modes[j].Amp, win.Modes[j].Amp
		denom := cmplx.Abs(fa)
		if denom < 1e-9 {
			continue
		}
		if rel := cmplx.Abs(fa-wa) / denom; rel > 1e-6 {
			t.Fatalf("mode %d: windowed amplitude rel diff %g (full %v, win %v)", j, rel, fa, wa)
		}
	}
}

// TestAmplitudeWindowZeroesDecayedModes: a mode that has fully decayed
// before the window opens carries no information into the windowed
// normal equations; its amplitude must come back exactly 0, not jitter
// noise scaled by 1/λᵏ⁰ (which would blow up early-time reconstruction).
func TestAmplitudeWindowZeroesDecayedModes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dt := 0.05
	// One persistent oscillator, one that decays to ~e⁻⁶⁸ before the
	// trailing 128 columns begin.
	data, _ := linearSystem(rng, 24, 400, []float64{0.4, 1.1}, []float64{0, -5}, dt)
	win := decomposeWindowed(t, data, dt, 128, 4)
	var zeroed, live int
	for _, m := range win.Modes {
		if cmplx.Abs(m.Lambda) < 0.9 {
			if m.Amp != 0 {
				t.Fatalf("decayed mode |λ|=%g kept noisy amplitude %v", cmplx.Abs(m.Lambda), m.Amp)
			}
			zeroed++
		} else if m.Amp != 0 {
			live++
		}
	}
	if zeroed == 0 || live == 0 {
		t.Fatalf("test lost its shape: %d zeroed, %d live of %d modes", zeroed, live, len(win.Modes))
	}
}

// TestReconFormsAgree: AddReconstructionWith and SubReconstructionWith
// run the two-GEMM plane form in accumulate mode at volumes
// r·t·p ≥ reconGemmMin and the scalar loop below it. On either side of
// the threshold, onto a nonzero destination, both must agree with the
// scalar loop to roundoff; the last case writes into a column view of a
// wider matrix (the shape the subtree, residual and grid callers pass)
// and must leave the columns outside the view bit for bit unchanged.
func TestReconFormsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dt := 0.05
	data, _ := linearSystem(rng, 40, 200, []float64{0.3, 0.9}, []float64{-0.02, -0.05}, dt)
	dec := decomposeWindowed(t, data, dt, 0, 0)
	if len(dec.Modes) == 0 {
		t.Fatal("no modes")
	}
	p, r := data.R, len(dec.Modes)
	below := (reconGemmMin - 1) / (r * p)
	above := reconGemmMin/(r*p) + 1
	if below < 1 {
		t.Fatalf("test lost its shape: %d modes × %d rows reach the GEMM volume at one column", r, p)
	}
	const pad = 5 // columns either side of the view case's window
	for _, c := range []struct {
		n    int
		view bool
	}{{below, false}, {above, false}, {96, false}, {96, true}} {
		times := make([]float64, c.n)
		for k := range times {
			times[k] = float64(k) * dt
		}
		for _, sign := range []float64{1, -1} {
			lo, hi := 0, c.n
			if c.view {
				lo, hi = pad, pad+c.n
			}
			base := mat.NewDense(p, hi+lo)
			for i := range base.Data {
				base.Data[i] = rng.NormFloat64()
			}
			got := base.Clone()
			dst := got
			if c.view {
				dst = mat.ColsView(got, lo, hi)
			}
			if sign > 0 {
				AddReconstructionWith(nil, nil, dst, dec.Modes, times)
			} else {
				SubReconstructionWith(nil, nil, dst, dec.Modes, times)
			}
			want := mat.NewDense(p, c.n)
			accumScalar(want, dec.Modes, times, sign)
			var maxDiff, scale float64
			for i := 0; i < p; i++ {
				grow, brow := got.Row(i), base.Row(i)
				for j := range grow {
					if j < lo || j >= hi {
						if grow[j] != brow[j] {
							t.Fatalf("%d columns, sign %v: column %d outside the view changed", c.n, sign, j)
						}
						continue
					}
					w := want.At(i, j-lo)
					maxDiff = math.Max(maxDiff, math.Abs(grow[j]-brow[j]-w))
					scale = math.Max(scale, math.Abs(w))
				}
			}
			if maxDiff > 1e-9*(scale+1) {
				t.Fatalf("%d columns (volume %d, GEMM from %d, view %v), sign %v: forms disagree beyond roundoff: %g (scale %g)",
					c.n, r*c.n*p, reconGemmMin, c.view, sign, maxDiff, scale)
			}
		}
	}
}
