package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// Incremental is the I-mrDMD state machine (paper Algorithm 1, Fig. 1(c)).
//
// After InitialFit over T columns, each PartialFit absorbs T₁ new columns:
//
//  1. The level-1 truncated SVD is updated incrementally (Brand/Kühl) with
//     the newly sampled columns, and the level-1 DMD — hence the slow
//     modes over the full [0, T+T₁) timeline — is recomputed from it.
//  2. A fresh mrDMD subtree (levels 2…MaxLevels) is fitted to the new
//     window's residual after subtracting the new level-1 slow part and
//     appended as a segment, which demotes every older node one level
//     (Algorithm 1, lines 7–9) without writing to it (see segment).
//  3. The Frobenius norm of the drift between old and new level-1 slow
//     reconstructions over the old window is measured. If it exceeds
//     Options.DriftThreshold, the old subtrees are recomputed against the new
//     slow part inside the same call, before it returns.
//
// The PartialFit cost is dominated by the new window's subtree, so it is
// nearly independent of how much history has been absorbed — the property
// behind Table I's flat partial-fit column.
type Incremental struct {
	opts Options
	p    int

	eng *compute.Engine    // long-lived worker pool shared by every layer
	ws  *compute.Workspace // pooled scratch shared with the SVD and DMD layers

	mu sync.Mutex // guards all mutable state below
	// hist is all absorbed data, P×T (kept for recompute and error
	// reporting): a trailing float64 hot window plus, when
	// Options.ColdHorizon is set, float32 chunks for older columns.
	hist *mat.TieredCols

	stride1    int              // level-1 subsample stride, fixed at InitialFit
	sub1       *mat.Dense       // level-1 subsampled snapshots
	isvd       *svd.Incremental // running SVD of sub1's X part (all but last column)
	nextSample int              // next global column index on the level-1 grid

	level1   *Node
	segments []*segment

	// spec holds the spectrum points of every segment's nodes, segment
	// after segment in Tree order, each point at its node's fit-time
	// Level. A fitted segment never changes, and its tree level offset
	// is the count of segments after it, so Spectrum and View serve the
	// segments with one copy of spec plus per-segment offsets (see
	// spectrumLocked). A new segment appends its points once;
	// freezeSpectrumLocked rebuilds spec (and segNodes, the live node
	// count over all segments) wherever segments are replaced. Derived
	// state, never serialized.
	spec     []dmd.SpectrumPoint
	segNodes int

	// gridSeg caches, on the level-1 grid (P × up to sub1.C), the summed
	// reconstruction of every node of segments[:gridFolded] — the part
	// of View's grid error that never changes once a segment is fitted
	// (see gridErrorLocked). ws-borrowed scratch, dropped whenever a
	// subtree is refitted, the sensor count changes or the scratch is
	// released; never serialized.
	gridSeg    *mat.Dense
	gridFolded int

	updates    int
	recomputes int
	// driftLog is a bounded ring of the last driftLogCap per-PartialFit
	// drift values: driftPos is the next write slot once the ring is full
	// (while filling, entries are in insertion order and driftPos ==
	// len(driftLog)).
	driftLog []float64
	driftPos int
}

// driftLogCap bounds the drift ring: PartialFit appends one float forever
// and every snapshot serializes the log, so an uncapped log is an O(T)
// term in both resident bytes and snapshot size. 1024 entries cover far
// more history than any drift diagnostic reads.
const driftLogCap = 1024

// segment is a contiguous window whose subtree (levels ≥ 2) was fitted in
// one InitialFit, PartialFit or refit. It is a value: nothing writes to it
// once newSegment builds it, and a refit swaps in a new one. Its nodes
// keep their fit-time levels (roots at 2); segment i's sit after(i)
// levels deeper in the tree.
type segment struct {
	start, end int
	nodes      []*Node
	// points is how many of Incremental.spec belong to nodes, and depth
	// the deepest fit-time level (0 without nodes).
	points, depth int
}

// newSegment builds the segment of window [start, end) holding nodes.
func newSegment(start, end int, nodes []*Node) *segment {
	return &segment{start: start, end: end, nodes: nodes, points: numModes(nodes), depth: maxLevel(nodes)}
}

// after returns how many segments were appended after segment i: how many
// levels below their fit-time levels its nodes sit in the tree.
func (inc *Incremental) after(i int) int { return len(inc.segments) - 1 - i }

// UpdateStats summarizes one PartialFit.
type UpdateStats struct {
	// Drift is ‖old slow recon − new slow recon‖_F over the old window's
	// level-1 sample grid (the trailing Options.DriftWindow grid columns
	// of it when that knob is set). It is measured in reduced form
	// (dmd.DriftWith) to a relative error of about u·‖slow‖²/Drift², and
	// it is exactly 0 when the update left the level-1 modes unchanged.
	Drift float64
	// Recomputed reports whether old subtrees were recomputed because
	// Drift exceeded the threshold.
	Recomputed bool
	// NewColumns is the number of raw columns absorbed.
	NewColumns int
	// NewSamples is how many of them landed on the level-1 sample grid.
	NewSamples int
}

// NewIncremental creates an I-mrDMD analyzer; call InitialFit before
// PartialFit.
func NewIncremental(opts Options) *Incremental {
	opts = opts.withDefaults()
	return &Incremental{
		opts: opts,
		eng:  compute.Shared(opts.Workers),
		ws:   compute.NewWorkspace(),
	}
}

// InitialFit performs the batch mrDMD over the first window and seeds the
// incremental level-1 SVD. Equivalent to Decompose on the same data.
func (inc *Incremental) InitialFit(data *mat.Dense) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist != nil {
		return errors.New("core: InitialFit called twice; create a new Incremental")
	}
	if err := inc.opts.Validate(); err != nil {
		return err
	}
	if err := checkShape(data); err != nil {
		return err
	}
	p, t := data.Dims()
	hist := mat.NewTieredCols(p)
	if !hist.Grow(data) { // one pass copies the seed and screens it
		return errNonFinite
	}
	inc.p = p
	inc.hist = hist
	inc.stride1 = windowStride(t, inc.opts)
	inc.sub1 = data.Subsample(inc.stride1)
	ns := inc.sub1.C
	inc.nextSample = ((t-1)/inc.stride1 + 1) * inc.stride1
	if ns < 2 {
		return fmt.Errorf("core: level-1 sample grid too small (%d columns)", ns)
	}
	seed := mat.ColSliceWith(inc.ws, inc.sub1, 0, ns-1)
	inc.isvd = svd.NewIncrementalWith(inc.eng, inc.ws, seed, inc.rankCap())
	mat.PutDense(inc.ws, seed)

	if err := inc.refreshLevel1(); err != nil {
		return err
	}
	// Levels ≥ 2: halves of the residual, exactly as batch mrDMD does.
	resid := inc.residualOf(0, t)
	nodes, err := inc.subtree(resid, 0)
	mat.PutDense(inc.ws, resid)
	if err != nil {
		return err
	}
	inc.segments = []*segment{newSegment(0, t, nodes)}
	inc.freezeSpectrumLocked()
	inc.demoteLocked()
	return nil
}

// driftLo returns the first grid column of the drift window for a grid of
// ns columns: 0 (full grid) unless Options.DriftWindow bounds it.
func (inc *Incremental) driftLo(ns int) int {
	if w := inc.opts.DriftWindow; w > 0 && w < ns {
		return ns - w
	}
	return 0
}

// demoteLocked moves raw columns older than Options.ColdHorizon to the
// f32 cold tier. Runs at the end of InitialFit/PartialFit, after every
// same-call consumer of history (residual fit, drift recompute) has read.
// A drift recompute of a segment that earlier calls already demoted
// refits from its f32-rounded columns, carrying one f32 rounding into the
// refit of an old window — part of the documented contract of the
// (non-default) cold tier.
func (inc *Incremental) demoteLocked() {
	h := inc.opts.ColdHorizon
	if h <= 0 {
		return
	}
	// Never demote inside the level-1 sampling reach: the next update
	// gathers grid columns up to one stride behind the tail, and those
	// samples must enter sub1 exact.
	if h < 2*inc.stride1 {
		h = 2 * inc.stride1
	}
	inc.hist.Demote(h)
}

// rankCap bounds the incremental SVD's retained rank so update cost stays
// flat. It comfortably exceeds the slow-mode count at level 1.
func (inc *Incremental) rankCap() int {
	rc := 8 * inc.opts.NyquistFactor * inc.opts.MaxCycles
	if rc < 48 {
		rc = 48
	}
	if inc.opts.Rank > 0 && inc.opts.Rank+8 > rc {
		rc = inc.opts.Rank + 8
	}
	if rc > inc.p {
		rc = inc.p
	}
	return rc
}

// PartialFit absorbs newData (P×T₁) per Algorithm 1.
func (inc *Incremental) PartialFit(newData *mat.Dense) (UpdateStats, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	var stats UpdateStats
	if inc.hist == nil {
		return stats, errors.New("core: PartialFit before InitialFit")
	}
	if newData.R != inc.p {
		return stats, fmt.Errorf("core: PartialFit row mismatch %d vs %d", newData.R, inc.p)
	}
	if newData.C == 0 {
		return stats, nil
	}
	oldT := inc.hist.Cols()
	// Only the new columns are written, and the same pass screens them: a
	// batch holding NaN or Inf leaves the history as it was.
	if !inc.hist.Grow(newData) {
		return stats, errNonFinite
	}
	newT := inc.hist.Cols()
	stats.NewColumns = newData.C

	// The level-1 modes before they move, and the old sample grid (drift
	// window) the drift compares them over.
	oldModes := inc.level1.Modes
	oldNS := inc.sub1.C
	oldLo := inc.driftLo(oldNS)

	// Absorb new columns that land on the level-1 grid.
	var newCols []int
	for idx := inc.nextSample; idx < newT; idx += inc.stride1 {
		newCols = append(newCols, idx)
	}
	if len(newCols) > 0 {
		block := inc.hist.GatherCols(inc.ws, newCols)
		inc.sub1 = mat.GrowColsWith(inc.ws, inc.sub1, block)
		mat.PutDense(inc.ws, block)
		inc.nextSample = newCols[len(newCols)-1] + inc.stride1
		// The running SVD tracks X = sub1[:, :end-1]: the previous last
		// column enters X now, and the newest column is held out as the
		// final Y target. The update block is a zero-copy column view —
		// the SVD layer's kernels are stride-aware end to end.
		ns := inc.sub1.C
		inc.isvd.UpdateBlock(mat.ColsView(inc.sub1, oldNS-1, ns-1), inc.opts.BlockColumns)
	}
	stats.NewSamples = len(newCols)

	if err := inc.refreshLevel1(); err != nil {
		return stats, err
	}

	// Drift of the slow part over the old window (Algorithm 1's update
	// criterion), on the subsampled grid — bounded further by DriftWindow
	// — and in reduced form, so neither slow part is evaluated there.
	times := inc.ws.GetF64(oldNS - oldLo)
	for k := range times {
		times[k] = float64((oldLo+k)*inc.stride1) * inc.opts.DT
	}
	stats.Drift = dmd.DriftWith(inc.eng, inc.ws, oldModes, inc.level1.Modes, times)
	inc.ws.PutF64(times)
	inc.logDrift(stats.Drift)

	// Fresh subtree over the new window's residual. Appending it demotes
	// every older segment one level (see segment).
	resid := inc.residualOf(oldT, newT)
	nodes, err := inc.subtree(resid, oldT)
	mat.PutDense(inc.ws, resid)
	if err != nil {
		return stats, err
	}
	seg := newSegment(oldT, newT, nodes)
	inc.segments = append(inc.segments, seg)
	inc.freezeSegmentLocked(seg)
	inc.updates++

	if thr := inc.opts.DriftThreshold; thr > 0 && stats.Drift > thr {
		stats.Recomputed = true
		inc.recomputes++
		inc.recomputeSegmentsLocked(len(inc.segments) - 1)
	}
	inc.demoteLocked()
	return stats, nil
}

// logDrift appends to the bounded drift ring.
func (inc *Incremental) logDrift(d float64) {
	if len(inc.driftLog) < driftLogCap {
		inc.driftLog = append(inc.driftLog, d)
		inc.driftPos = len(inc.driftLog) % driftLogCap
		return
	}
	inc.driftLog[inc.driftPos] = d
	inc.driftPos = (inc.driftPos + 1) % driftLogCap
}

// lastDriftLocked returns the most recent drift (0 before any update).
func (inc *Incremental) lastDriftLocked() float64 {
	n := len(inc.driftLog)
	if n == 0 {
		return 0
	}
	return inc.driftLog[(inc.driftPos-1+n)%n]
}

// driftLogChrono returns the ring's entries oldest-first.
func (inc *Incremental) driftLogChrono() []float64 {
	n := len(inc.driftLog)
	out := make([]float64, 0, n)
	if n < driftLogCap {
		return append(out, inc.driftLog...)
	}
	out = append(out, inc.driftLog[inc.driftPos:]...)
	return append(out, inc.driftLog[:inc.driftPos]...)
}

// recomputeSegmentsLocked re-derives the subtrees of the first n segments
// against the current level-1 slow part, then rebuilds the frozen
// spectrum once.
func (inc *Incremental) recomputeSegmentsLocked(n int) {
	for i := range n {
		inc.recomputeSegmentLocked(i)
	}
	inc.freezeSpectrumLocked()
}

// recomputeSegmentLocked refits segment i against the current level-1
// slow part and swaps the new segment in; the caller rebuilds the frozen
// spectrum.
func (inc *Incremental) recomputeSegmentLocked(i int) {
	inc.invalidateGridSeg()
	old := inc.segments[i]
	resid := inc.residualOf(old.start, old.end)
	nodes, err := inc.subtree(resid, old.start)
	mat.PutDense(inc.ws, resid)
	if err != nil {
		return // keep the stale subtree; reconstruction degrades gracefully
	}
	inc.segments[i] = newSegment(old.start, old.end, nodes)
}

// subtree fits the levels ≥ 2 mrDMD tree on a residual window: the window
// is split in half and each half is decomposed starting at level 2,
// matching the batch recursion shape.
func (inc *Incremental) subtree(resid *mat.Dense, start int) ([]*Node, error) {
	if inc.opts.MaxLevels < 2 || resid.C < 2*inc.opts.MinWindow {
		return nil, nil
	}
	return recursion{opts: &inc.opts, eng: inc.eng, ws: inc.ws}.splitDecompose(resid, 2, start)
}

// refreshLevel1 recomputes the level-1 DMD and slow modes from the
// incremental SVD state.
func (inc *Incremental) refreshLevel1() error {
	t := inc.hist.Cols()
	// The view is read-only and consumed before the next isvd update, so
	// no defensive clone of the (large) U/V factors is needed.
	res := inc.isvd.ResultView()
	rho := float64(inc.opts.MaxCycles) / (float64(t) * inc.opts.DT)
	dec, err := dmd.FromSVDSlow(res, inc.sub1, dmd.Options{
		DT:              float64(inc.stride1) * inc.opts.DT,
		Rank:            inc.opts.Rank,
		UseSVHT:         inc.opts.UseSVHT,
		AmplitudeWindow: inc.opts.AmplitudeWindow,
		Engine:          inc.eng,
		Ws:              inc.ws,
	}, rho)
	if err != nil {
		return err
	}
	inc.level1 = &Node{
		Level:       1,
		Start:       0,
		End:         t,
		Stride:      inc.stride1,
		Modes:       dec.Modes,
		NumAllModes: dec.Rank,
	}
	return nil
}

// residualOf returns history columns [lo, hi) minus the level-1 slow
// reconstruction over that window, in a workspace-borrowed matrix the
// caller must PutDense back. The slow part is subtracted in place by the
// accumulate-mode mode sum, as every subtree window's is.
func (inc *Incremental) residualOf(lo, hi int) *mat.Dense {
	// Copy, not view: the level-1 slow part below is subtracted in
	// place, and the history keeps its raw columns.
	resid := inc.hist.CopyWindow(inc.ws, lo, hi)
	times := inc.ws.GetF64(hi - lo)
	for k := range times {
		times[k] = float64(lo+k) * inc.opts.DT
	}
	dmd.SubReconstructionWith(inc.eng, inc.ws, resid, inc.level1.Modes, times)
	inc.ws.PutF64(times)
	return resid
}

// Tree snapshots the current decomposition as a Tree (level-1 node plus
// every segment subtree), usable with all Tree methods. Before InitialFit
// it is an empty tree.
func (inc *Incremental) Tree() *Tree {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist == nil {
		return &Tree{P: inc.p, Opts: inc.opts}
	}
	return &Tree{Nodes: treeNodesLocked(inc), P: inc.p, T: inc.hist.Cols(), Opts: inc.opts}
}

// cloneNode copies n, with its own Modes slice, at level.
func cloneNode(n *Node, level int) *Node {
	c := *n
	c.Level = level
	c.Modes = append([]dmd.Mode(nil), n.Modes...)
	return &c
}

// Reconstruct returns the current I-mrDMD approximation of all absorbed
// data.
func (inc *Incremental) Reconstruct() *mat.Dense {
	return inc.Tree().Reconstruct()
}

// ReconError returns ‖raw − Reconstruct()‖_F over all absorbed data,
// streamed per column window: the lock is taken briefly to pin the node
// set and again per window to copy at most reconErrWindow history
// columns, so the hold time — and the scratch footprint — stays O(P·w)
// instead of the former full P×T clone. If the sensor dimension changes
// mid-scan (a concurrent AddSensors), the scan restarts against the new
// state.
func (inc *Incremental) ReconError() float64 {
	const maxRestarts = 3
	for attempt := 0; ; attempt++ {
		if s, ok := inc.reconErrorStreamed(); ok || attempt == maxRestarts {
			if ok {
				return s
			}
			// Pathological churn: fall back to one consistent full pass.
			inc.mu.Lock()
			raw := inc.hist.Promote()
			t := &Tree{Nodes: treeNodesLocked(inc), P: inc.p, T: inc.hist.Cols(), Opts: inc.opts}
			inc.mu.Unlock()
			return mat.Sub(raw, t.Reconstruct()).FrobNorm()
		}
	}
}

// reconErrWindow is the per-step column span of the streamed ReconError:
// wide enough to keep the node evaluations on the GEMM tier, small enough
// that the per-window lock hold and scratch stay modest.
const reconErrWindow = 1024

// treeNodesLocked clones the live nodes, in Tree order and at their tree
// levels, for a caller that uses them after the lock drops.
func treeNodesLocked(inc *Incremental) []*Node {
	nodes := append(make([]*Node, 0, 1+inc.segNodes), cloneNode(inc.level1, 1))
	for i, seg := range inc.segments {
		for _, nd := range seg.nodes {
			nodes = append(nodes, cloneNode(nd, nd.Level+inc.after(i)))
		}
	}
	return nodes
}

// reconErrorStreamed runs one streamed scan; ok is false when the state
// shifted under it (sensor count or shrunk history) and a restart is
// needed.
func (inc *Incremental) reconErrorStreamed() (float64, bool) {
	inc.mu.Lock()
	if inc.hist == nil {
		inc.mu.Unlock()
		return 0, true
	}
	p, t := inc.hist.Rows(), inc.hist.Cols()
	nodes := treeNodesLocked(inc)
	dt := inc.opts.DT
	inc.mu.Unlock()

	var s float64
	for lo := 0; lo < t; lo += reconErrWindow {
		hi := lo + reconErrWindow
		if hi > t {
			hi = t
		}
		// Window copy under the lock (a view could be recycled by a
		// concurrent Grow/Demote the moment the lock drops), evaluation
		// and accumulation outside it.
		inc.mu.Lock()
		if inc.hist.Rows() != p || inc.hist.Cols() < t {
			inc.mu.Unlock()
			return 0, false
		}
		chunk := inc.hist.CopyWindow(inc.ws, lo, hi)
		inc.mu.Unlock()

		acc := mat.GetDense(inc.ws, p, hi-lo) // zeroed accumulator
		for _, nd := range nodes {
			addNodeWindow(inc.eng, inc.ws, acc, nd, lo, hi, dt)
		}
		for i := 0; i < p; i++ {
			crow := chunk.Row(i)
			for k, a := range acc.Row(i) {
				d := crow[k] - a
				s += d * d
			}
		}
		mat.PutDense(inc.ws, acc)
		mat.PutDense(inc.ws, chunk)
	}
	return math.Sqrt(s), true
}

// addNodeWindow accumulates nd's reconstruction restricted to absolute
// columns [lo, hi) into acc (P×(hi−lo) covering that span), evaluated
// only where the node's window intersects the span. It is the one
// full-resolution mode sum: Tree.Reconstruct runs it over [0, T) and
// ReconError over reconErrWindow-wide spans.
func addNodeWindow(eng *compute.Engine, ws *compute.Workspace, acc *mat.Dense, nd *Node, lo, hi int, dt float64) {
	if len(nd.Modes) == 0 {
		return
	}
	a, b := nd.Start, nd.End
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return
	}
	times := ws.GetF64(b - a)
	for k := range times {
		times[k] = float64(a+k-nd.Start) * dt
	}
	dmd.AddReconstructionWith(eng, ws, mat.ColsView(acc, a-lo, b-lo), nd.Modes, times)
	ws.PutF64(times)
}

// Raw returns a copy of all absorbed data (useful for comparisons); cold
// columns widen from their f32 storage.
func (inc *Incremental) Raw() *mat.Dense {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.hist.Promote()
}

// MemStats reports the resident bytes of the absorbed history by tier —
// the memory accounting behind the server's /stats and the public
// Analyzer.MemStats: flat in stream length for the hot part, halved for
// everything past Options.ColdHorizon.
type MemStats struct {
	// HotBytes / ColdBytes are the resident history bytes of the f64 hot
	// chunks and the f32 cold chunks.
	HotBytes, ColdBytes int64
	// Steps counts all absorbed time steps; ColdSteps how many of them
	// live in the cold tier.
	Steps, ColdSteps int
}

// MemStats returns the history-tier memory accounting.
func (inc *Incremental) MemStats() MemStats {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist == nil {
		return MemStats{}
	}
	return MemStats{
		HotBytes:  inc.hist.HotBytes(),
		ColdBytes: inc.hist.ColdBytes(),
		Steps:     inc.hist.Cols(),
		ColdSteps: inc.hist.ColdCols(),
	}
}

// RefitBatch runs batch mrDMD over everything absorbed so far — the
// "without our incremental approach" comparator in §IV and Q2.
func (inc *Incremental) RefitBatch() (*Tree, error) {
	return Decompose(inc.Raw(), inc.opts)
}

// Cols returns the number of absorbed columns.
func (inc *Incremental) Cols() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist == nil {
		return 0
	}
	return inc.hist.Cols()
}

// SeedCols returns how many columns InitialFit absorbed: the end of the
// first segment (0 before InitialFit; a decoded snapshot without
// segments reports its absorbed columns).
func (inc *Incremental) SeedCols() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	switch {
	case inc.hist == nil:
		return 0
	case len(inc.segments) == 0:
		return inc.hist.Cols()
	}
	return inc.segments[0].end
}

// Updates returns how many PartialFits have been applied.
func (inc *Incremental) Updates() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.updates
}

// Recomputes returns how many drift-triggered recomputations have run.
func (inc *Incremental) Recomputes() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.recomputes
}

// DriftLog returns the drift measured at recent PartialFits, oldest
// first. The log is a bounded ring: once more than driftLogCap updates
// have been applied only the most recent driftLogCap drifts are retained.
func (inc *Incremental) DriftLog() []float64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.driftLogChrono()
}
