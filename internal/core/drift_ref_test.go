package core_test

import (
	"math"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
)

// directDrift is the drift in its direct form: both mode sets evaluated
// fresh on the drift window's grid, then the Frobenius norm of the
// difference. PartialFit measured it this way before it moved to the
// reduced form of dmd.DriftWith; it is the reference that form is held
// to here. slow is the norm of the old slow part on the same grid.
func directDrift(p int, old, cur []dmd.Mode, times []float64) (drift, slow float64) {
	a, b := mat.NewDense(p, len(times)), mat.NewDense(p, len(times))
	dmd.AddReconstructionWith(nil, nil, a, old, times)
	dmd.AddReconstructionWith(nil, nil, b, cur, times)
	var s float64
	for i, v := range a.Data {
		d := v - b.Data[i]
		s += d * d
	}
	return math.Sqrt(s), a.FrobNorm()
}

// sameModes reports whether two mode sets are bit-identical, in order.
func sameModes(a, b []dmd.Mode) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].Psi != b[j].Psi || a[j].Amp != b[j].Amp || len(a[j].Phi) != len(b[j].Phi) {
			return false
		}
		for i, v := range a[j].Phi {
			if v != b[j].Phi[i] {
				return false
			}
		}
	}
	return true
}

// TestDriftMatchesDirectReference streams three SC-Log shapes in
// 40-column batches and holds every batch's UpdateStats.Drift to
// directDrift within 1e-8 relative: the README's streaming options at
// P = 200 (2000 seed columns) and at Theta's P = 4392 (720 seed
// columns), and P = 48 with DriftWindow and AmplitudeWindow 64 and
// ColdHorizon 512 (512 seed columns; the grid outgrows the drift window
// after ~40 batches). Where an update left the level-1 modes bit for bit
// unchanged, the drift must be exactly 0. The reduced form's relative
// error is about u·(‖slow‖/drift)², so each case logs its smallest
// drift/‖slow‖ beside its worst gap.
func TestDriftMatchesDirectReference(t *testing.T) {
	readme := core.Options{DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8}
	windowed := readme
	windowed.DriftWindow, windowed.AmplitudeWindow, windowed.ColdHorizon = 64, 64, 512
	cases := []struct {
		name             string
		p, seed, batches int
		opts             core.Options
	}{
		{"sclog-200", 200, 2000, 60, readme},
		{"sclog-4392", 4392, 720, 25, readme},
		{"sclog-48-windowed", 48, 512, 100, windowed},
	}
	const batch, tol = 40, 1e-8
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.p > 1000 {
				t.Skip("Theta-width stream skipped in -short")
			}
			data := bench.SCLogData(c.p, c.seed+c.batches*batch, 1)
			inc := core.NewIncremental(c.opts)
			if err := inc.InitialFit(data.ColSlice(0, c.seed)); err != nil {
				t.Fatal(err)
			}
			var unchanged int
			worst, minRatio := 0.0, math.Inf(1)
			for b := 0; b < c.batches; b++ {
				old, times := inc.DriftInputs()
				lo := c.seed + b*batch
				st, err := inc.PartialFit(data.ColSlice(lo, lo+batch))
				if err != nil {
					t.Fatal(err)
				}
				cur, _ := inc.DriftInputs()
				if sameModes(old, cur) {
					unchanged++
					if st.Drift != 0 {
						t.Fatalf("batch %d: level-1 modes unchanged but drift %v, want exactly 0", b, st.Drift)
					}
					continue
				}
				ref, slow := directDrift(c.p, old, cur, times)
				gap := math.Abs(st.Drift - ref)
				if !(gap <= tol*ref) {
					t.Fatalf("batch %d: drift %v, direct reference %v: relative gap %g exceeds %g",
						b, st.Drift, ref, gap/ref, tol)
				}
				worst = math.Max(worst, gap/ref)
				minRatio = math.Min(minRatio, ref/slow)
			}
			if unchanged == c.batches {
				t.Fatal("no batch moved the level-1 modes; the comparison would be vacuous")
			}
			t.Logf("%d batches, %d with unchanged modes; worst relative gap %.3g; smallest drift/‖slow‖ %.3g",
				c.batches, unchanged, worst, minRatio)
		})
	}
}
