package core

import (
	"errors"
	"fmt"

	"imrdmd/internal/mat"
)

// This file implements the extensions the paper's §VI defers to future
// work: adding entire new time series (sensors) to a running I-mrDMD,
// quantifying the compression the retained modes achieve, and taming the
// divergence of growing modes at fine temporal resolutions.

// AddSensors extends a fitted I-mrDMD with new spatial measurements
// ("extend the I-mrDMD approach to add new entire time series or sensor
// measurements incrementally", §VI/§VII). rows must carry the new
// sensors' full history: one row per new sensor, one column per absorbed
// time step.
//
// The level-1 SVD is extended in place by a Brand-style row update (no
// recomputation over the time axis); the level ≥2 subtrees must be
// refitted because their spatial modes gain entries, but each subtree
// refit only spans its own window and they are independent (the same
// embarrassing parallelism as Algorithm 1's recompute path).
func (inc *Incremental) AddSensors(rows *mat.Dense) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist == nil {
		return errors.New("core: AddSensors before InitialFit")
	}
	if rows.R == 0 {
		return nil
	}
	if rows.C != inc.hist.Cols() {
		return fmt.Errorf("core: AddSensors needs the full %d-step history, got %d columns",
			inc.hist.Cols(), rows.C)
	}
	if rows.HasNaN() {
		return errNonFinite
	}
	inc.hist.AddRows(rows)
	// The cached grid evaluation spans the old sensor dimension; the next
	// View re-evaluates fresh.
	inc.invalidateGridSeg()
	newSub := mat.SubsampleWith(inc.ws, rows, inc.stride1)
	// Keep the level-1 grid consistent: sub1 holds columns 0, s, 2s, …
	if newSub.C != inc.sub1.C {
		trimmed := mat.ColSliceWith(inc.ws, newSub, 0, inc.sub1.C)
		mat.PutDense(inc.ws, newSub)
		newSub = trimmed
	}
	grownSub := mat.VStackWith(inc.ws, inc.sub1, newSub)
	mat.PutDense(inc.ws, inc.sub1)
	inc.sub1 = grownSub
	inc.p = inc.hist.Rows()
	// The running SVD tracks X = sub1[:, :ns-1].
	newX := mat.ColSliceWith(inc.ws, newSub, 0, newSub.C-1)
	inc.isvd.AddRows(newX)
	mat.PutDense(inc.ws, newX)
	mat.PutDense(inc.ws, newSub)
	if err := inc.refreshLevel1(); err != nil {
		return err
	}
	for _, seg := range inc.segments {
		inc.recomputeSegmentLocked(seg)
	}
	return nil
}

// Sensors returns the current spatial dimension.
func (inc *Incremental) Sensors() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.p
}

// modeBytes is the storage cost of one retained mode: the complex spatial
// vector plus eigenvalue, exponent and amplitude.
func modeBytes(p int) int { return 16*p + 3*16 }

// StorageBytes returns the bytes needed to hold the decomposition's
// retained modes — the compressed representation from which Reconstruct
// rebuilds the (denoised) data.
func (t *Tree) StorageBytes() int {
	total := 0
	for _, nd := range t.Nodes {
		total += len(nd.Modes)*modeBytes(t.P) + 4*8 // window metadata
	}
	return total
}

// CompressionRatio returns raw-data bytes over mode-storage bytes — the
// paper's "reduce the data size from terabytes to megabytes" measure.
// Values above 1 mean the decomposition is smaller than the data.
func (t *Tree) CompressionRatio() float64 {
	s := t.StorageBytes()
	if s == 0 {
		return 0
	}
	return float64(t.P*t.T*8) / float64(s)
}

// StabilizeGrowth projects every retained mode with positive growth rate
// onto neutral growth (Re ψ ← 0, |λ| ← 1), addressing the divergence
// issue inherent in mrDMD as temporal resolution increases (§VI, citing
// [38]): spurious growing modes, extrapolated across a window, can blow
// up the reconstruction. Returns the number of modes adjusted.
//
// The adjustment deliberately preserves each mode's frequency and
// amplitude; only the unstable envelope is flattened.
func (t *Tree) StabilizeGrowth() int {
	n := 0
	for _, nd := range t.Nodes {
		for i := range nd.Modes {
			m := &nd.Modes[i]
			if real(m.Psi) > 0 {
				m.Psi = complex(0, imag(m.Psi))
				n++
			}
		}
	}
	return n
}
