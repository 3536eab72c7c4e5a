package bench

import (
	"fmt"
	"math"

	"imrdmd/internal/core"
)

// Q2Result answers the paper's Q2: how much accuracy does the online
// update give up relative to recomputing mrDMD from scratch? The paper
// reports the reconstruction-difference growing "only by a sum of
// 10–5000, depending on the underlying dynamics and the time step
// upgrades".
type Q2Result struct {
	P, T       int
	Updates    int
	DataNorm   float64 // ‖data‖_F, the scale reference
	BatchError float64 // ‖data − mrDMD recon‖_F
	IncError   float64 // ‖data − I-mrDMD recon‖_F
	Gap        float64 // IncError − BatchError
	DriftTotal float64 // Σ per-update slow-mode drift
	// WithRecompute repeats the run with drift-triggered recomputation
	// enabled; its gap should shrink.
	RecomputeError float64
	RecomputeGap   float64
	Recomputes     int
}

// RunQ2 measures the online-vs-batch accuracy gap (E12) and the effect of
// the drift-triggered recomputation the paper defers to future work
// (E13).
func RunQ2(p, t, updates int, seed int64) (*Q2Result, error) {
	if p <= 0 {
		p = 256
	}
	if t <= 0 {
		t = 4096
	}
	if updates <= 0 {
		updates = 4
	}
	data := SCLogData(p, t, seed)
	opts := scOpts(6)

	batch, err := core.Decompose(data, opts)
	if err != nil {
		return nil, err
	}
	res := &Q2Result{P: p, T: t, Updates: updates}
	res.DataNorm = data.FrobNorm()
	res.BatchError = batch.ReconError(data)

	run := func(threshold float64) (*core.Incremental, error) {
		inc := core.NewIncremental(opts)
		inc.DriftThreshold = threshold
		first := t / 2
		if err := inc.InitialFit(data.ColSlice(0, first)); err != nil {
			return nil, err
		}
		blk := (t - first) / updates
		for u := 0; u < updates; u++ {
			lo := first + u*blk
			hi := lo + blk
			if u == updates-1 {
				hi = t
			}
			if _, err := inc.PartialFit(data.ColSlice(lo, hi)); err != nil {
				return nil, err
			}
		}
		return inc, nil
	}

	plain, err := run(0)
	if err != nil {
		return nil, err
	}
	res.IncError = plain.ReconError()
	res.Gap = res.IncError - res.BatchError
	for _, d := range plain.DriftLog() {
		res.DriftTotal += d
	}

	recomputed, err := run(1e-9) // recompute on any drift
	if err != nil {
		return nil, err
	}
	res.RecomputeError = recomputed.ReconError()
	res.RecomputeGap = res.RecomputeError - res.BatchError
	res.Recomputes = recomputed.Recomputes()
	return res, nil
}

// CheckQ2Shape verifies the paper's claims: the incremental
// reconstruction stays a faithful approximation (small error relative to
// the data, like the paper's ≈5% case studies), the gap to batch mrDMD is
// bounded (the paper's "sum of 10–5000" band, which is a few percent of
// the data norm at their scales), and drift-triggered recomputation
// closes most of that gap.
func CheckQ2Shape(res *Q2Result) error {
	if math.IsNaN(res.Gap) || math.IsInf(res.Gap, 0) {
		return fmt.Errorf("gap is not finite")
	}
	if res.DataNorm <= 0 {
		return fmt.Errorf("degenerate data norm")
	}
	if rel := res.IncError / res.DataNorm; rel > 0.15 {
		return fmt.Errorf("incremental relative error %.1f%% too large", 100*rel)
	}
	if rel := res.Gap / res.DataNorm; rel > 0.10 {
		return fmt.Errorf("accuracy gap is %.1f%% of the data norm, want bounded", 100*rel)
	}
	if res.RecomputeError > res.IncError {
		return fmt.Errorf("recomputation made the error worse (%.3f > %.3f)",
			res.RecomputeError, res.IncError)
	}
	return nil
}

// FormatQ2 renders the result.
func FormatQ2(res *Q2Result) string {
	rel := func(v float64) string {
		return fmt.Sprintf("%s (%.2f%% of ‖data‖)", secs(v), 100*v/res.DataNorm)
	}
	rows := [][]string{
		{"‖data‖_F", secs(res.DataNorm)},
		{"batch mrDMD ‖err‖_F", rel(res.BatchError)},
		{"I-mrDMD ‖err‖_F", rel(res.IncError)},
		{"gap (paper: 10–5000 band)", rel(res.Gap)},
		{"Σ slow-mode drift", secs(res.DriftTotal)},
		{"I-mrDMD + recompute ‖err‖_F", rel(res.RecomputeError)},
		{"gap after recompute", rel(res.RecomputeGap)},
		{"recomputations triggered", fmt.Sprint(res.Recomputes)},
	}
	return Table([]string{"Quantity", "Value"}, rows)
}
