package core

import (
	"imrdmd/internal/dmd"
	"imrdmd/internal/svd"
)

// Level1Factors exposes the live level-1 factors to the external tests
// (read-only, valid until the next update).
func (inc *Incremental) Level1Factors() *svd.Result { return inc.isvd.ResultView() }

// DriftInputs returns what the next PartialFit measures its drift from:
// the live level-1 modes (read-only; an update replaces the slice rather
// than writing into it) and the times of the drift window's grid columns.
func (inc *Incremental) DriftInputs() ([]dmd.Mode, []float64) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	ns := inc.sub1.C
	lo := inc.driftLo(ns)
	times := make([]float64, ns-lo)
	for k := range times {
		times[k] = float64((lo+k)*inc.stride1) * inc.opts.DT
	}
	return inc.level1.Modes, times
}
