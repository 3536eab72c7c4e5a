package core

import (
	"math"

	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
)

// View is the cheap read-side summary of an Incremental: everything a
// query surface publishes after an update, assembled in one pass under
// the analyzer lock without cloning the tree or re-walking it per field.
// The spectrum points match Tree().Spectrum() exactly (same node order);
// the error is measured on the level-1 sample grid (see GridError) so
// assembling a View after every absorbed block costs O(modes·P·grid)
// instead of the O(P·T) of a full-resolution reconstruction — the same
// subsampled-grid trade PartialFit's drift check already makes.
type View struct {
	// Spectrum flattens every node's retained modes, in Tree node order
	// (level 1 first, then each segment's subtree oldest to newest).
	Spectrum []dmd.SpectrumPoint
	// NumModes, MaxLevel and Nodes mirror the Tree methods of the same
	// names; Steps is the absorbed column count and Sensors the spatial
	// dimension.
	NumModes int
	MaxLevel int
	Nodes    int
	Steps    int
	Sensors  int
	// Updates and Recomputes are the PartialFit / drift-recompute
	// counters.
	Updates    int
	Recomputes int
	// LastDrift is the drift measured by the most recent PartialFit
	// (zero before the first update).
	LastDrift float64
	// GridError is ‖raw − recon‖_F restricted to the level-1 sample grid
	// (every stride1-th column): the streaming reconstruction-quality
	// signal. It is exact on the grid — it agrees with evaluating
	// Tree().Reconstruct() at the sampled columns to rounding (the node
	// sum runs in a different order) — and a publish evaluates only the
	// level-1 node and the newest segment, so its cost does not grow
	// with absorbed history. The full-resolution ‖raw − Reconstruct()‖_F
	// remains available through ReconError.
	GridError float64
	// GridCols is how many sampled columns GridError spans.
	GridCols int
}

// View assembles the published summary. Callers polling at high rates
// should prefer this over separate Tree()/ReconError() calls: one lock
// acquisition, no per-node mode cloning, and the grid-restricted error
// instead of a full-resolution reconstruction.
func (inc *Incremental) View() View {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	var v View
	if inc.hist == nil {
		return v
	}
	v.Steps = inc.hist.Cols()
	v.Sensors = inc.p
	v.Updates = inc.updates
	v.Recomputes = inc.recomputes
	v.LastDrift = inc.lastDriftLocked()
	// Walk the live nodes in Tree order without cloning them — the walk
	// is read-only and completes before the lock is released.
	n := 1
	for _, seg := range inc.segments {
		n += len(seg.nodes)
	}
	nodes := make([]*Node, 0, n)
	nodes = append(nodes, inc.level1)
	for _, seg := range inc.segments {
		nodes = append(nodes, seg.nodes...)
	}
	v.Nodes = len(nodes)
	for _, nd := range nodes {
		v.NumModes += len(nd.Modes)
		if nd.Level > v.MaxLevel {
			v.MaxLevel = nd.Level
		}
	}
	v.Spectrum = spectrumOf(nodes, v.NumModes)
	v.GridError, v.GridCols = inc.gridErrorLocked()
	return v
}

// gridErrorLocked evaluates ‖raw − recon‖_F over the level-1 sample grid:
// the summed node reconstructions at the sampled columns against sub1,
// which holds exactly those columns of raw. The sum runs over every
// segment's nodes in tree order, then the level-1 node last. A segment's
// subtree never changes after its fit and covers only its own grid
// columns, all of which exist when it is appended, so the segment part
// is kept in gridSeg and each call folds in only the segments appended
// since the last one: per-column additions happen in the same order as a
// from-scratch sum, so the result is bit-identical to one, and a publish
// evaluates just the level-1 term.
func (inc *Incremental) gridErrorLocked() (float64, int) {
	ns := inc.sub1.C
	if ns == 0 {
		return 0, 0
	}
	switch {
	case inc.gridSeg == nil:
		inc.gridSeg = mat.GetDense(inc.ws, inc.p, ns)
	case inc.gridSeg.C < ns:
		zero := mat.GetDense(inc.ws, inc.p, ns-inc.gridSeg.C)
		inc.gridSeg = mat.GrowColsWith(inc.ws, inc.gridSeg, zero)
		mat.PutDense(inc.ws, zero)
	}
	for _, seg := range inc.segments[inc.gridFolded:] {
		for _, nd := range seg.nodes {
			inc.addNodeOnGrid(inc.gridSeg, nd)
		}
	}
	inc.gridFolded = len(inc.segments)

	acc := mat.CloneWith(inc.ws, inc.gridSeg)
	inc.addNodeOnGrid(acc, inc.level1)
	var s float64
	for i := 0; i < inc.p; i++ {
		arow := acc.Row(i)
		for j, val := range inc.sub1.Row(i) {
			d := val - arow[j]
			s += d * d
		}
	}
	mat.PutDense(inc.ws, acc)
	return math.Sqrt(s), ns
}

// invalidateGridSeg drops the folded segment sum (a subtree was refitted
// or the sensor dimension changed); the next View rebuilds it.
func (inc *Incremental) invalidateGridSeg() {
	if inc.gridSeg != nil {
		mat.PutDense(inc.ws, inc.gridSeg)
		inc.gridSeg = nil
	}
	inc.gridFolded = 0
}

// addNodeOnGrid adds nd's slow reconstruction, evaluated at the level-1
// sample columns inside nd's window, into acc (P×ns over the grid). Grid
// column g holds raw column g·stride1, so the node covers grid columns
// [⌈Start/stride1⌉, ⌈End/stride1⌉).
func (inc *Incremental) addNodeOnGrid(acc *mat.Dense, nd *Node) {
	if len(nd.Modes) == 0 {
		return
	}
	st := inc.stride1
	lo := (nd.Start + st - 1) / st
	hi := (nd.End + st - 1) / st
	if hi > acc.C {
		hi = acc.C
	}
	if hi <= lo {
		return
	}
	w := hi - lo
	times := inc.ws.GetF64(w)
	for k := 0; k < w; k++ {
		times[k] = float64((lo+k)*st-nd.Start) * inc.opts.DT
	}
	dmd.AddReconstructionWith(inc.eng, inc.ws, mat.ColsView(acc, lo, hi), nd.Modes, times)
	inc.ws.PutF64(times)
}
