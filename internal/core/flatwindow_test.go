package core_test

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// Documented agreement tolerances for the flat-horizon windowing knobs on
// persistent (statistically stationary) workloads like the paper's SC Log
// and GPU Metrics streams. The windowed amplitude refit drops redundant
// normal-equation rows, not information, so level-1 eigenvalues are
// untouched and amplitudes move only by the noise resolved differently
// over fewer samples; the full-resolution reconstruction error moves by
// strictly less.
const (
	// flatWinFreqTol bounds level-1 mode frequency drift: eigenvalues come
	// from the (un-windowed) SVD update, so frequencies must be identical
	// up to compare plumbing.
	flatWinFreqTol = 1e-12
	// flatWinAmpTol bounds the relative level-1 amplitude difference
	// between a trailing-window fit and the full-width fit, for modes
	// still carrying most of their envelope when the window opens
	// (|λ|ᵏ⁰ ≥ flatWinMassHi). A 16-of-24 grid-column window re-resolves
	// the noise floor over a third fewer samples, which moves even the DC
	// amplitude several percent on the SC Log stream.
	flatWinAmpTol = 0.10
	// flatWinMassHi / flatWinMassLo split modes by remaining envelope at
	// the window boundary: above Hi the amplitude must agree to
	// flatWinAmpTol; below Lo the fit must report the mode absent (the
	// dmd layer's mass floor); between, the estimate is documented as
	// noise-amplified by at most 1/mass and only boundedness is asserted.
	flatWinMassHi = 0.5
	flatWinMassLo = 0.02
	// flatWinErrTol bounds how far the windowed run's ReconError may sit
	// above the full-width run's (ratio − 1).
	flatWinErrTol = 0.10
)

// streamRecompute is streamScenario with drift-triggered (synchronous)
// recompute enabled — the configuration the windowing knobs are designed
// to pair with: old subtrees keep refitting against the current level-1
// slow part, so what the windowed fit resolves differently at early times
// is absorbed by the residual subtrees rather than left as error.
func streamRecompute(t *testing.T, data *mat.Dense, opts core.Options) *core.Incremental {
	t.Helper()
	const initialT = 1024
	opts.DriftThreshold = 1e-9
	inc := core.NewIncremental(opts)
	if err := inc.InitialFit(data.ColSlice(0, initialT)); err != nil {
		t.Fatal(err)
	}
	step := (data.C - initialT) / 4
	for c := initialT; c < data.C; c += step {
		hi := c + step
		if hi > data.C {
			hi = data.C
		}
		if _, err := inc.PartialFit(data.ColSlice(c, hi)); err != nil {
			t.Fatal(err)
		}
	}
	return inc
}

// TestFlatWindowsAgree: DriftWindow + AmplitudeWindow bound per-update
// work without changing what the analyzer converges to.
func TestFlatWindowsAgree(t *testing.T) {
	for _, sc := range snapshotScenarios() {
		label := sc.name
		opts := core.Options{
			DT: sc.dt, MaxLevels: 4, MaxCycles: 2, UseSVHT: true,
			Parallel: true, BlockColumns: 8,
		}
		full := streamRecompute(t, sc.data, opts)

		wopts := opts
		// The level-1 grid ends at 24 columns here (stride 64 over
		// 1536); both windows must be genuinely narrower than that
		// or the test degenerates to the full-width path.
		wopts.DriftWindow = 8
		wopts.AmplitudeWindow = 16
		win := streamRecompute(t, sc.data, wopts)

		ft, wt := full.Tree(), win.Tree()
		if len(ft.Nodes) == 0 || len(wt.Nodes) == 0 {
			t.Fatalf("%s: empty tree", label)
		}
		fl1, wl1 := ft.Nodes[0], wt.Nodes[0]
		if len(fl1.Modes) != len(wl1.Modes) {
			t.Fatalf("%s: level-1 mode count %d vs %d", label, len(wl1.Modes), len(fl1.Modes))
		}
		// k0 grid columns precede the amplitude window; a mode's
		// remaining envelope there decides which contract applies.
		k0 := 24 - wopts.AmplitudeWindow
		var maxAmpFull float64
		for j := range fl1.Modes {
			if a := cmplx.Abs(fl1.Modes[j].Amp); a > maxAmpFull {
				maxAmpFull = a
			}
		}
		for j := range fl1.Modes {
			fm, wm := &fl1.Modes[j], &wl1.Modes[j]
			if d := math.Abs(fm.Freq - wm.Freq); d > flatWinFreqTol*(1+math.Abs(fm.Freq)) {
				t.Fatalf("%s mode %d: freq %v vs %v (windowing must not move eigenvalues)",
					label, j, wm.Freq, fm.Freq)
			}
			fa := cmplx.Abs(fm.Amp)
			if fa < 1e-9 {
				continue
			}
			mass := math.Pow(cmplx.Abs(fm.Lambda), float64(k0))
			if mass > 1 {
				mass = 1
			}
			switch {
			case mass >= flatWinMassHi:
				if rel := cmplx.Abs(fm.Amp-wm.Amp) / fa; rel > flatWinAmpTol {
					t.Fatalf("%s mode %d (mass %g): windowed amplitude rel diff %g > %g (%v vs %v)",
						label, j, mass, rel, flatWinAmpTol, wm.Amp, fm.Amp)
				}
			case mass < flatWinMassLo:
				if wm.Amp != 0 {
					t.Fatalf("%s mode %d (mass %g): decayed mode kept amplitude %v, want 0",
						label, j, mass, wm.Amp)
				}
			default:
				// Gray zone: either zeroed by the mass floor or a
				// ≤ 1/mass noise-amplified estimate — never worse.
				if wa := cmplx.Abs(wm.Amp); wa > maxAmpFull/mass {
					t.Fatalf("%s mode %d (mass %g): windowed amplitude %g exceeds the 1/mass bound %g",
						label, j, mass, wa, maxAmpFull/mass)
				}
			}
		}

		fe, we := full.ReconError(), win.ReconError()
		if math.IsNaN(we) || math.IsInf(we, 0) {
			t.Fatalf("%s: windowed ReconError not finite: %v", label, we)
		}
		if we > fe*(1+flatWinErrTol) {
			t.Fatalf("%s: windowed ReconError %v exceeds full-width %v by more than %g",
				label, we, fe, flatWinErrTol)
		}

		fd, wd := full.DriftLog(), win.DriftLog()
		if len(fd) != len(wd) {
			t.Fatalf("%s: drift log lengths %d vs %d", label, len(wd), len(fd))
		}
		for i, d := range wd {
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				t.Fatalf("%s: windowed drift %d invalid: %v", label, i, d)
			}
		}
	}
}

// TestTieredRecomputeConcurrentReaders drives the cold tier, inline
// drift recompute and every read surface concurrently — the CI race
// leg's target. Correctness here is "no race, no panic, finite results": the
// numeric contracts are pinned by the deterministic tests.
func TestTieredRecomputeConcurrentReaders(t *testing.T) {
	sc := snapshotScenarios()[0]
	inc := core.NewIncremental(core.Options{
		DT: sc.dt, MaxLevels: 4, MaxCycles: 2, UseSVHT: true,
		Parallel: true, BlockColumns: 8, ColdHorizon: 256,
		DriftThreshold: 1e-9, // recompute on every update
	})
	const initialT, batch = 512, 128
	if err := inc.InitialFit(sc.data.ColSlice(0, initialT)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch r {
				case 0:
					if e := inc.ReconError(); math.IsNaN(e) {
						t.Error("ReconError NaN under concurrency")
						return
					}
				case 1:
					v := inc.View()
					if v.Steps > 0 && v.Nodes == 0 {
						t.Error("View lost its nodes under concurrency")
						return
					}
					_ = inc.MemStats()
					_ = inc.DriftLog()
				case 2:
					raw := inc.Raw()
					if raw.R == 0 {
						t.Error("Raw empty under concurrency")
						return
					}
				}
			}
		}(r)
	}

	for c := initialT; c < sc.data.C; c += batch {
		if _, err := inc.PartialFit(sc.data.ColSlice(c, c+batch)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()

	if inc.Cols() != sc.data.C {
		t.Fatalf("absorbed %d cols, want %d", inc.Cols(), sc.data.C)
	}
	ms := inc.MemStats()
	if ms.ColdCols == 0 {
		t.Fatal("cold tier never engaged under the concurrent stream")
	}
	if r := inc.Recomputes(); r == 0 {
		t.Fatal("drift recompute path never engaged")
	}
	if e := inc.ReconError(); math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("final ReconError not finite: %v", e)
	}
}
