package core

import (
	"testing"

	"imrdmd/internal/dmd"
	"imrdmd/internal/joblog"
	"imrdmd/internal/mat"
	"imrdmd/internal/telemetry"
)

// sclogData is bench.SCLogData (which this package cannot import): Theta
// environment telemetry for p nodes over t samples, driven by a
// simulated job schedule.
func sclogData(p, t int, seed int64) *mat.Dense {
	prof := telemetry.ThetaEnv()
	horizon := float64(t) * prof.SampleInterval
	gen := telemetry.NewGenerator(prof, p, seed)
	gen.Schedule = joblog.Simulate(joblog.SimConfig{
		NumNodes: p, Horizon: horizon, Seed: seed,
		MeanInterarrival: horizon / 60, MeanDuration: horizon / 5,
	})
	return gen.Matrix(0, t)
}

// TestResidualOfMatchesRawMinusSlow streams a P=48 SC-Log analyzer with
// DriftWindow and AmplitudeWindow 64 and ColdHorizon 512, then holds
// residualOf over a window that starts in the f32 cold tier and crosses
// into the second hot chunk to the raw history minus the level-1 slow
// part evaluated one mode and one column at a time: within 1e-12 of the
// reference residual's Frobenius norm.
func TestResidualOfMatchesRawMinusSlow(t *testing.T) {
	const p, seed, batch, batches = 48, 512, 40, 40
	data := sclogData(p, seed+batches*batch, 1)
	inc := NewIncremental(Options{
		DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8,
		DriftWindow: 64, AmplitudeWindow: 64, ColdHorizon: 512,
	})
	if err := inc.InitialFit(data.ColSlice(0, seed)); err != nil {
		t.Fatal(err)
	}
	for pos := seed; pos < data.C; pos += batch {
		if _, err := inc.PartialFit(data.ColSlice(pos, pos+batch)); err != nil {
			t.Fatal(err)
		}
	}
	raw := inc.Raw()

	inc.mu.Lock()
	defer inc.mu.Unlock()
	cold := inc.hist.ColdCols()
	lo, hi := cold-100, cold+mat.TieredChunkCols+50
	if cold == 0 || hi > inc.hist.Cols() || len(inc.level1.Modes) == 0 {
		t.Fatalf("test lost its shape: %d cold of %d columns, %d level-1 modes",
			cold, inc.hist.Cols(), len(inc.level1.Modes))
	}
	got := inc.residualOf(lo, hi)
	defer mat.PutDense(inc.ws, got)

	want := raw.ColSlice(lo, hi)
	for _, m := range inc.level1.Modes {
		for k := range want.C {
			w := dmd.ExpPsiT(m.Psi, float64(lo+k)*inc.opts.DT) * m.Amp
			for i := range p {
				want.Data[i*want.C+k] -= real(m.Phi[i] * w)
			}
		}
	}
	diff := mat.Sub(got, want).FrobNorm()
	rel := diff / want.FrobNorm()
	t.Logf("window [%d,%d) over %d cold columns: ‖residualOf − (raw − slow)‖ = %.3g relative", lo, hi, cold, rel)
	if rel > 1e-12 {
		t.Fatalf("residualOf differs from raw − slow by %.3g relative", rel)
	}
}
