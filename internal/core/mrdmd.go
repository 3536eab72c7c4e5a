// Package core implements the paper's primary contribution: multiresolution
// dynamic mode decomposition (mrDMD, Kutz et al. 2016) and its incremental
// streaming variant I-mrDMD (Algorithm 1 of the paper).
//
// mrDMD recursively separates timescales: at each level it runs DMD on the
// (subsampled) window, keeps only the modes slower than ρ = maxCycles/window
// ("slow modes"), subtracts their reconstruction from the data, splits the
// residual timeline in half and recurses. I-mrDMD keeps the level-1 SVD in
// incremental form so that newly streamed time points update the modes in
// O(new data) instead of O(all data).
package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
)

// Options configures an mrDMD / I-mrDMD analysis.
type Options struct {
	// DT is the sampling interval of the input columns (seconds, or any
	// consistent unit; frequencies come out in cycles per that unit).
	DT float64
	// MaxLevels bounds the recursion depth (level 1 = whole window).
	MaxLevels int
	// MaxCycles is the slow-mode threshold: a mode is "slow" for a window
	// of duration D when |ψ|/2π ≤ MaxCycles/D, i.e. it completes at most
	// MaxCycles oscillations across the window.
	MaxCycles int
	// NyquistFactor oversamples the slow band: each window is subsampled
	// to about NyquistFactor·2·MaxCycles columns before DMD. The paper
	// (following [2], [3]) uses four times the Nyquist limit, i.e. 4.
	NyquistFactor int
	// Rank fixes SVD truncation; 0 defers to SVHT when UseSVHT is set,
	// otherwise full numerical rank.
	Rank int
	// UseSVHT enables the Gavish–Donoho optimal hard threshold.
	UseSVHT bool
	// MinWindow stops recursion when a window has fewer columns.
	MinWindow int
	// Parallel processes the two halves of each split concurrently on the
	// compute engine; the recursion is embarrassingly parallel, as the
	// paper notes.
	Parallel bool
	// Workers bounds the engine lane count for everything this analysis
	// runs — matrix kernels, sibling windows, drift recomputes. 0 uses
	// the GOMAXPROCS-sized shared pool.
	Workers int
	// BlockColumns chunks the incremental SVD's absorption of newly
	// sampled level-1 columns: each chunk of BlockColumns columns pays
	// one residual QR plus one small core SVD, so larger values mean
	// fewer factorizations per absorbed column. 1 absorbs column by
	// column; 0 (the default) absorbs each PartialFit's new samples as a
	// single block, preserving the pre-knob semantics. The absorbed
	// subspace is identical up to rank truncation for every setting
	// (blockcolumns_test.go pins BlockColumns=8 against column-at-a-time
	// within 1e-8 reconstruction error).
	BlockColumns int
	// DriftWindow bounds PartialFit's drift measurement — the comparison
	// of old vs new level-1 slow reconstructions — to the trailing
	// DriftWindow level-1 grid columns. Combined with the slow-grid cache
	// (which already makes the old-side evaluation O(Δ) regardless), this
	// caps the one remaining O(grid) term of the per-batch pipeline at
	// O(DriftWindow). The measured drift then reflects recent history
	// only: recomputation triggers on changes visible inside the window.
	// 0 (the default) measures over the full grid, bit-identical to prior
	// releases.
	DriftWindow int
	// AmplitudeWindow bounds the level-1 amplitude refit (the Jovanović
	// normal equations inside every PartialFit) to the trailing
	// AmplitudeWindow level-1 grid columns — the last O(T) term of the
	// per-batch cost. Modes that decayed to nothing before the window
	// opens get amplitude 0 (the window carries no information about
	// them); persistent modes agree with the full-width fit to roundoff
	// on stationary signals (test-pinned). 0 (the default) fits the full
	// grid, bit-identical to prior releases.
	AmplitudeWindow int
	// ColdHorizon demotes absorbed raw columns older than this many steps
	// from float64 to float32 chunk storage, halving resident bytes for
	// long histories. The trailing ColdHorizon columns always stay exact;
	// demoted history is widened back on demand (segment recompute,
	// ReconError, snapshot) carrying one f32 rounding (rel ≤ 2⁻²⁴ per
	// element). 0 (the default) keeps everything in float64, bit-stable
	// with prior releases. See DESIGN.md §10.
	ColdHorizon int
	// Engine overrides the worker pool directly (advanced; takes
	// precedence over Workers). Shared across calls, never closed here.
	Engine *compute.Engine
}

// engine resolves the configured compute engine.
func (o Options) engine() *compute.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return compute.Shared(o.Workers)
}

// Validate rejects option values that would otherwise be accepted
// silently and misbehave later: negative worker, block-column or window
// counts. The zero value of every field is valid.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("core: Options.Workers must be >= 0, got %d", o.Workers)
	}
	if o.BlockColumns < 0 {
		return fmt.Errorf("core: Options.BlockColumns must be >= 0, got %d", o.BlockColumns)
	}
	if o.DriftWindow < 0 {
		return fmt.Errorf("core: Options.DriftWindow must be >= 0, got %d (0 = full grid)", o.DriftWindow)
	}
	if o.AmplitudeWindow < 0 {
		return fmt.Errorf("core: Options.AmplitudeWindow must be >= 0, got %d (0 = full grid)", o.AmplitudeWindow)
	}
	if o.ColdHorizon < 0 {
		return fmt.Errorf("core: Options.ColdHorizon must be >= 0, got %d (0 = no cold tier)", o.ColdHorizon)
	}
	return nil
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.DT <= 0 {
		o.DT = 1
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 6
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 2
	}
	if o.NyquistFactor <= 0 {
		o.NyquistFactor = 4
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 8
	}
	return o
}

// Node is one window of the multiresolution tree holding the slow modes
// extracted there.
type Node struct {
	Level  int // 1-based; level 1 spans the whole timeline
	Start  int // global column index, inclusive
	End    int // global column index, exclusive
	Stride int // subsample stride used for the DMD at this node
	// Modes are the retained slow modes (spatial vectors are full length P).
	Modes []dmd.Mode
	// NumAllModes counts modes before the slow filter, for diagnostics.
	NumAllModes int
}

// Window returns the number of original columns this node spans.
func (n *Node) Window() int { return n.End - n.Start }

// Tree is a complete mrDMD decomposition.
type Tree struct {
	Nodes []*Node
	P     int
	T     int
	Opts  Options
}

// Decompose runs batch mrDMD on data (P×T) on the engine configured by
// opts (a long-lived shared pool by default — no goroutines are spawned
// per call).
func Decompose(data *mat.Dense, opts Options) (*Tree, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := checkInput(data); err != nil {
		return nil, err
	}
	p, t := data.Dims()
	work := data.Clone()
	nodes, err := decompose(work, 1, 0, opts, opts.engine(), compute.NewWorkspace())
	if err != nil {
		return nil, err
	}
	return &Tree{Nodes: nodes, P: p, T: t, Opts: opts}, nil
}

// ErrNoSensors is returned when the input matrix has no rows.
var ErrNoSensors = errors.New("core: input has no sensors (zero rows)")

// checkInput rejects data no decomposition can start from: no rows
// (sensors), fewer than two snapshot columns, or a NaN/Inf reading.
func checkInput(data *mat.Dense) error {
	p, t := data.Dims()
	if p == 0 {
		return ErrNoSensors
	}
	if t < 2 {
		return dmd.ErrTooFewSnapshots
	}
	if data.HasNaN() {
		return errors.New("core: input contains NaN or Inf")
	}
	return nil
}

// decompose processes one window (data is the residual for this window and
// will be mutated by slow-mode subtraction), returning the flattened nodes
// of the subtree. start is the window's global column offset, level its
// 1-based depth. Sibling subtrees run concurrently on the engine when
// opts.Parallel is set; the workspace is shared (it is concurrency-safe)
// so every branch draws scratch from one pool.
func decompose(data *mat.Dense, level, start int, opts Options, eng *compute.Engine, ws *compute.Workspace) ([]*Node, error) {
	node, residual, err := processWindow(data, level, start, opts, eng, ws)
	if err != nil {
		return nil, err
	}
	nodes := []*Node{node}
	n := residual.C
	if level >= opts.MaxLevels || n < 2*opts.MinWindow {
		return nodes, nil
	}
	children, err := splitDecompose(residual, level+1, start, opts, eng, ws)
	if err != nil {
		return nil, err
	}
	return append(nodes, children...), nil
}

// splitDecompose halves resid and decomposes both halves at the given
// level — concurrently on the engine when opts.Parallel is set. Used by
// the batch recursion and by the incremental subtree fit.
func splitDecompose(resid *mat.Dense, level, start int, opts Options, eng *compute.Engine, ws *compute.Workspace) ([]*Node, error) {
	n := resid.C
	half := n / 2
	left := mat.ColSliceWith(ws, resid, 0, half)
	right := mat.ColSliceWith(ws, resid, half, n)

	var (
		lnodes, rnodes    []*Node
		leftErr, rightErr error
	)
	runLeft := func() {
		lnodes, leftErr = decompose(left, level, start, opts, eng, ws)
		mat.PutDense(ws, left)
	}
	runRight := func() {
		rnodes, rightErr = decompose(right, level, start+half, opts, eng, ws)
		mat.PutDense(ws, right)
	}
	if opts.Parallel && eng.Workers() > 1 {
		eng.Do(runLeft, runRight)
	} else {
		runLeft()
		runRight()
	}
	if leftErr != nil {
		return nil, leftErr
	}
	if rightErr != nil {
		return nil, rightErr
	}
	return append(lnodes, rnodes...), nil
}

// processWindow runs the per-window step: subsample, DMD, slow-mode
// selection, slow-part subtraction. It returns the node and the residual
// (data minus slow reconstruction; aliases the mutated input).
func processWindow(data *mat.Dense, level, start int, opts Options, eng *compute.Engine, ws *compute.Workspace) (*Node, *mat.Dense, error) {
	n := data.C
	stride := windowStride(n, opts)
	// At stride 1 the DMD reads the window itself: nothing mutates data
	// until the fit below has returned.
	sub := mat.ColsView(data, 0, n)
	if stride > 1 {
		sub = mat.SubsampleWith(ws, data, stride)
	}
	dtSub := float64(stride) * opts.DT
	rho := float64(opts.MaxCycles) / (float64(n) * opts.DT)

	dec, err := dmd.ComputeSlow(sub, dmd.Options{
		DT: dtSub, Rank: opts.Rank, UseSVHT: opts.UseSVHT,
		Engine: eng, Ws: ws,
	}, rho)
	mat.PutDense(ws, sub) // a no-op for the view
	if err != nil {
		return nil, nil, fmt.Errorf("core: level %d window [%d,%d): %w", level, start, start+n, err)
	}
	node := &Node{
		Level:       level,
		Start:       start,
		End:         start + n,
		Stride:      stride,
		Modes:       dec.Modes,
		NumAllModes: dec.Rank,
	}
	if len(dec.Modes) > 0 {
		times := ws.GetF64(n)
		for k := range times {
			times[k] = float64(k) * opts.DT
		}
		// Accumulate-mode GEMMs flip the slow part out of the window in
		// place — no p×n reconstruction scratch, no separate subtract pass.
		dmd.SubReconstructionWith(eng, ws, data, dec.Modes, times)
		ws.PutF64(times)
	}
	return node, data, nil
}

// windowStride computes the subsample stride so the window keeps about
// NyquistFactor × 2 × MaxCycles columns — enough to resolve MaxCycles
// oscillations at NyquistFactor× the Nyquist rate (paper §III-A).
func windowStride(n int, opts Options) int {
	target := opts.NyquistFactor * 2 * opts.MaxCycles
	if target < 4 {
		target = 4
	}
	stride := n / target
	if stride < 1 {
		stride = 1
	}
	return stride
}

// Reconstruct sums the slow-mode reconstructions of every node, giving the
// mrDMD approximation of the original data (Eq. 7/8).
func (t *Tree) Reconstruct() *mat.Dense {
	return reconstructNodes(t.Nodes, t.P, t.T, t.Opts.DT)
}

// ReconstructLevels reconstructs using only nodes with Level ≤ maxLevel,
// i.e. only timescales at least as slow as that level captures.
func (t *Tree) ReconstructLevels(maxLevel int) *mat.Dense {
	kept := make([]*Node, 0, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.Level <= maxLevel {
			kept = append(kept, n)
		}
	}
	return reconstructNodes(kept, t.P, t.T, t.Opts.DT)
}

func reconstructNodes(nodes []*Node, p, t int, dt float64) *mat.Dense {
	out := mat.NewDense(p, t)
	for _, nd := range nodes {
		addNodeRecon(out, nd, dt)
	}
	return out
}

// addNodeRecon adds a node's slow-part reconstruction into out over the
// node's own window.
func addNodeRecon(out *mat.Dense, nd *Node, dt float64) {
	if len(nd.Modes) == 0 {
		return
	}
	w := nd.Window()
	times := make([]float64, w)
	for k := range times {
		times[k] = float64(k) * dt
	}
	recon := dmd.ReconstructModes(nd.Modes, out.R, times)
	for i := 0; i < out.R; i++ {
		dst := out.Row(i)[nd.Start:nd.End]
		src := recon.Row(i)
		for k := range dst {
			dst[k] += src[k]
		}
	}
}

// Spectrum flattens every node's modes into spectrum points (Fig. 5/7).
func (t *Tree) Spectrum() []dmd.SpectrumPoint {
	return spectrumOf(t.Nodes, t.NumModes())
}

// spectrumOf flattens the modes of nodes, numModes of them in all, into
// one slice sized once; no modes gives nil.
func spectrumOf(nodes []*Node, numModes int) []dmd.SpectrumPoint {
	if numModes == 0 {
		return nil
	}
	pts := make([]dmd.SpectrumPoint, 0, numModes)
	for _, nd := range nodes {
		for _, m := range nd.Modes {
			pts = append(pts, dmd.SpectrumPoint{
				Freq:  m.Freq,
				Power: m.Power,
				Amp:   cmplx.Abs(m.Amp),
				Grow:  real(m.Psi),
				Level: nd.Level,
			})
		}
	}
	return pts
}

// NumModes counts retained modes across the tree.
func (t *Tree) NumModes() int {
	c := 0
	for _, n := range t.Nodes {
		c += len(n.Modes)
	}
	return c
}

// MaxLevel returns the deepest level present.
func (t *Tree) MaxLevel() int {
	m := 0
	for _, n := range t.Nodes {
		if n.Level > m {
			m = n.Level
		}
	}
	return m
}

// ReconError returns ‖data − Reconstruct()‖_F, the figure the paper
// reports for Fig. 3 (3958.58) and case study 2 (3423.847).
func (t *Tree) ReconError(data *mat.Dense) float64 {
	return mat.Sub(data, t.Reconstruct()).FrobNorm()
}

// ModeMagnitudes accumulates, per state/sensor row, the amplitude-weighted
// spatial mode magnitude Σᵢ |φᵢ(p)|·|bᵢ| over modes with frequency in
// [band.Lo, band.Hi]. This is the per-measurement quantity the z-score
// analysis compares against baselines (§III-A2).
func (t *Tree) ModeMagnitudes(band FreqBand) []float64 {
	return modeMagnitudes(t.Nodes, t.P, band)
}

// FreqBand is a closed frequency interval in cycles per time unit.
type FreqBand struct {
	Lo, Hi float64
}

// FullBand spans all frequencies.
func FullBand() FreqBand { return FreqBand{Lo: 0, Hi: math.Inf(1)} }

func modeMagnitudes(nodes []*Node, p int, band FreqBand) []float64 {
	mag := make([]float64, p)
	for _, nd := range nodes {
		// Weight nodes by their window share so long windows (slow
		// dynamics) and short windows contribute proportionally.
		for _, m := range nd.Modes {
			if m.Freq < band.Lo || m.Freq > band.Hi {
				continue
			}
			ab := cmplx.Abs(m.Amp)
			if ab == 0 {
				continue
			}
			for i := 0; i < p; i++ {
				mag[i] += cmplx.Abs(m.Phi[i]) * ab
			}
		}
	}
	return mag
}

// ReadingLevels returns the per-sensor time-mean of the band-limited
// reconstruction: the denoised "readings of interest" the case studies
// standardize into z-scores (red hues = readings much higher than
// baselines, blue = much lower). Restricting the band reproduces the
// paper's frequency-isolation step (e.g. 0–60 Hz in case study 1).
func (t *Tree) ReadingLevels(band FreqBand) []float64 {
	return readingLevels(t.Nodes, t.P, t.Opts.DT, band, 0, t.T)
}

// ReadingLevelsRange restricts the time-mean to columns [lo, hi) — the
// recency window online monitoring evaluates against.
func (t *Tree) ReadingLevelsRange(band FreqBand, lo, hi int) []float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > t.T {
		hi = t.T
	}
	if hi <= lo {
		return make([]float64, t.P)
	}
	return readingLevels(t.Nodes, t.P, t.Opts.DT, band, lo, hi)
}

func readingLevels(nodes []*Node, p int, dt float64, band FreqBand, lo, hi int) []float64 {
	acc := make([]float64, p)
	for _, nd := range nodes {
		// Intersect the node's window with the evaluation range.
		kLo, kHi := nd.Start, nd.End
		if kLo < lo {
			kLo = lo
		}
		if kHi > hi {
			kHi = hi
		}
		if kHi <= kLo {
			continue
		}
		for _, m := range nd.Modes {
			if m.Freq < band.Lo || m.Freq > band.Hi {
				continue
			}
			// S = Σ e^{ψ·(k−Start)Δt} over the intersected window; the
			// mode's contribution to sensor i's time-sum is Re(φᵢ·b·S).
			var s complex128
			for k := kLo; k < kHi; k++ {
				s += expPsiTC(m.Psi, float64(k-nd.Start)*dt)
			}
			bs := m.Amp * s
			if bs == 0 {
				continue
			}
			for i := 0; i < p; i++ {
				acc[i] += real(m.Phi[i] * bs)
			}
		}
	}
	inv := 1 / float64(hi-lo)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}

// expPsiTC mirrors dmd's clamped exponential for use in level sums.
func expPsiTC(psi complex128, t float64) complex128 {
	re := real(psi) * t
	if re > 700 {
		re = 700
	}
	if re < -700 {
		return 0
	}
	return cmplx.Exp(complex(re, imag(psi)*t))
}
