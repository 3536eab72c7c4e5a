package core

import (
	"math"

	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
)

// View is the cheap read-side summary of an Incremental: everything a
// query surface publishes after an update, assembled under the analyzer
// lock without cloning or walking the tree. The spectrum points match
// Tree().Spectrum() exactly (same node order, same bits);
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
// acquisition, no node walk or mode cloning — the spectrum is the
// level-1 points plus one copy of the frozen segment points (see
// Spectrum), and the counts come from per-segment totals — and the
// grid-restricted error instead of a full-resolution reconstruction.
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
	v.Nodes = 1 + inc.segNodes
	v.Spectrum = inc.spectrumLocked()
	v.NumModes = len(v.Spectrum)
	v.MaxLevel = inc.maxLevelLocked()
	v.GridError, v.GridCols = inc.gridErrorLocked()
	return v
}

// Spectrum returns Tree().Spectrum() — the same points in the same order,
// bit for bit — without cloning or walking the nodes: the level-1 node's
// points, then one copy of the segments' frozen points with each
// segment's level offset added, so a read allocates only its result and
// costs O(points + segments). Before InitialFit it is nil. NumModes and
// MaxLevel come from the same per-segment totals; ModeMagnitudes and
// ReadingLevels read the live nodes. All equal the Tree methods of the
// same names.
func (inc *Incremental) Spectrum() []dmd.SpectrumPoint {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.spectrumLocked()
}

// NumModes returns Tree().NumModes() without the clone.
func (inc *Incremental) NumModes() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist == nil {
		return 0
	}
	return len(inc.level1.Modes) + len(inc.spec)
}

// MaxLevel returns Tree().MaxLevel() without the clone.
func (inc *Incremental) MaxLevel() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.maxLevelLocked()
}

// ModeMagnitudes returns Tree().ModeMagnitudes(band) without the clone.
func (inc *Incremental) ModeMagnitudes(band FreqBand) []float64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return modeMagnitudes(inc.liveNodesLocked(), inc.p, band)
}

// ReadingLevels returns Tree().ReadingLevels(band) without the clone.
func (inc *Incremental) ReadingLevels(band FreqBand) []float64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	t := 0
	if inc.hist != nil {
		t = inc.hist.Cols()
	}
	return readingLevels(inc.liveNodesLocked(), inc.p, t, inc.opts.DT, band)
}

// liveNodesLocked lists the live nodes in Tree order without cloning
// them; callers only read them, and finish before releasing the lock.
// Segment nodes carry their fit-time levels, not their tree levels (see
// treeNodesLocked), so callers must not read Level. Before InitialFit
// there are none.
func (inc *Incremental) liveNodesLocked() []*Node {
	if inc.hist == nil {
		return nil
	}
	nodes := make([]*Node, 0, 1+inc.segNodes)
	nodes = append(nodes, inc.level1)
	for _, seg := range inc.segments {
		nodes = append(nodes, seg.nodes...)
	}
	return nodes
}

// freezeSpectrumLocked rebuilds spec and segNodes from every segment.
// Called wherever segments are replaced: InitialFit, a drift recompute or
// AddSensors (recomputeSegmentsLocked) and decode.
func (inc *Incremental) freezeSpectrumLocked() {
	n := 0
	for _, seg := range inc.segments {
		n += seg.points
	}
	inc.spec, inc.segNodes = make([]dmd.SpectrumPoint, 0, n), 0
	for _, seg := range inc.segments {
		inc.freezeSegmentLocked(seg)
	}
}

// freezeSegmentLocked appends seg's points to spec, each at its node's
// fit-time level, and counts its nodes.
func (inc *Incremental) freezeSegmentLocked(seg *segment) {
	inc.segNodes += len(seg.nodes)
	for _, nd := range seg.nodes {
		inc.spec = appendNodePoints(inc.spec, nd, nd.Level)
	}
}

// spectrumLocked assembles the spectrum Spectrum and View serve: spec
// with each segment i's points raised by after(i), 0 for the newest.
func (inc *Incremental) spectrumLocked() []dmd.SpectrumPoint {
	if inc.hist == nil {
		return nil
	}
	n1 := len(inc.level1.Modes)
	if n1+len(inc.spec) == 0 {
		return nil
	}
	pts := make([]dmd.SpectrumPoint, 0, n1+len(inc.spec))
	pts = appendNodePoints(pts, inc.level1, inc.level1.Level)
	pts = append(pts, inc.spec...)
	run := pts[n1:]
	for i, seg := range inc.segments {
		off := inc.after(i)
		for j := range run[:seg.points] {
			run[j].Level += off
		}
		run = run[seg.points:]
	}
	return pts
}

// maxLevelLocked is maxLevel over the tree's nodes, from each segment's
// deepest fit-time level.
func (inc *Incremental) maxLevelLocked() int {
	if inc.hist == nil {
		return 0
	}
	m := inc.level1.Level
	for i, seg := range inc.segments {
		if seg.depth > 0 {
			m = max(m, seg.depth+inc.after(i))
		}
	}
	return m
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
