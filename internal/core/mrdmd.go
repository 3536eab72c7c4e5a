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
	"imrdmd/internal/svd"
)

// Options configures an mrDMD / I-mrDMD analysis. The public package
// and the server name this declaration (imrdmd.Options is an alias). The
// zero value of every field is valid; withDefaults fills DT=1,
// MaxLevels=6, MaxCycles=2, NyquistFactor=4 and MinWindow=8 at fit time.
type Options struct {
	// DT is the sampling interval between input columns (seconds, or any
	// consistent unit; frequencies come out in cycles per that unit).
	DT float64
	// MaxLevels bounds the multiresolution recursion depth (level 1 =
	// whole window).
	MaxLevels int
	// MaxCycles is the slow-mode threshold per window (paper default 2):
	// a mode is "slow" for a window of duration D when |ψ|/2π ≤
	// MaxCycles/D, i.e. it completes at most MaxCycles oscillations
	// across the window.
	MaxCycles int
	// NyquistFactor oversamples the slow band: each window is subsampled
	// to about NyquistFactor·2·MaxCycles columns before DMD. The paper
	// (following [2], [3]) uses four times the Nyquist limit, i.e. 4.
	NyquistFactor int
	// Rank fixes SVD truncation; 0 defers to SVHT when UseSVHT is set,
	// otherwise full numerical rank.
	Rank int
	// UseSVHT enables the Gavish–Donoho optimal hard threshold
	// (do_svht=True in the paper's Fig. 9 configuration).
	UseSVHT bool
	// MinWindow stops recursion when a window has fewer columns.
	MinWindow int
	// Parallel processes the two halves of each split concurrently on the
	// compute engine; the recursion is embarrassingly parallel, as the
	// paper notes.
	Parallel bool
	// Workers sizes the compute engine everything this analysis runs on —
	// matrix kernels, sibling windows and drift recomputes share one
	// long-lived pool of Workers−1 goroutines, with each calling goroutine
	// contributing its own lane. 0 uses a GOMAXPROCS-sized pool. The pool
	// is process-wide per Workers value (compute.Shared): analyzers with
	// the same count share its workers, each concurrent caller still
	// adding its one inline lane. Each distinct value pins one permanent
	// pool for the process lifetime, so prefer a few fixed sizes over
	// per-request values. See DESIGN.md §2.
	Workers int
	// BlockColumns chunks the incremental SVD's absorption of newly
	// sampled level-1 columns: each chunk of BlockColumns columns pays
	// one residual QR plus one small core SVD, so larger values mean
	// fewer factorizations per absorbed column (1 absorbs column by
	// column; 8 is a good streaming default). 0 (the default) absorbs
	// each PartialFit's new samples as a single block, preserving the
	// pre-knob semantics. The absorbed subspace is identical up to rank
	// truncation for every setting (blockcolumns_test.go pins
	// BlockColumns=8 against column-at-a-time within 1e-8 reconstruction
	// error). See DESIGN.md §5.
	BlockColumns int
	// DriftThreshold, when positive, recomputes previously fitted
	// subtrees when the level-1 slow-mode drift (UpdateStats.Drift)
	// exceeds it (Algorithm 1's user-defined threshold). The recompute
	// runs inside the PartialFit that measured the drift, so its result
	// is in place when the call returns. Zero disables recomputation; a
	// negative, NaN or infinite value is invalid.
	DriftThreshold float64
	// DriftWindow bounds PartialFit's drift measurement — the comparison
	// of old vs new level-1 slow reconstructions — to the trailing
	// DriftWindow level-1 grid columns, so UpdateStats.Drift reflects
	// recent change instead of diluting it across the whole timeline:
	// recomputation triggers on changes visible inside the window. The
	// drift is measured in reduced form (see dmd.DriftWith), where the
	// window only bounds a K²·window term beside the P·K² Gram. 0 (the
	// default) measures over the full grid. Pairs naturally with
	// DriftThreshold. See DESIGN.md §10.
	DriftWindow int
	// AmplitudeWindow bounds the level-1 amplitude refit (the Jovanović
	// least-squares fit re-run inside every PartialFit) to the trailing
	// AmplitudeWindow level-1 grid columns — the last O(T) term of the
	// per-batch cost. Amplitudes stay referenced to t=0; modes that
	// decayed away before the window opens get amplitude 0 (the window
	// carries no information about them); persistent modes agree with
	// the full-width fit to roundoff on stationary signals (test-pinned).
	// 0 (the default) fits the full grid, bit-identical to prior
	// releases. See DESIGN.md §10 for the agreement tolerances.
	AmplitudeWindow int
	// ColdHorizon, when positive, demotes absorbed raw columns older than
	// this many steps from float64 to float32 chunk storage, roughly
	// halving resident history bytes for long streams. The trailing
	// ColdHorizon columns, and everything the update pipeline fits
	// against, stay exact float64. Only full-resolution raw reads (Raw,
	// ReconError, snapshots) and DriftThreshold recomputes of windows
	// older than the horizon see the one f32 rounding (relative ≤ 2⁻²⁴
	// per element) on cold columns. 0 (the default) keeps all history in
	// float64, bit-stable with prior releases. See DESIGN.md §10.
	ColdHorizon int
}

// Validate rejects option values that would otherwise be accepted
// silently and misbehave later: negative worker, block-column or window
// counts, and a drift threshold that is negative, NaN or infinite. The
// zero value of every field is valid. Errors name the field
// ("Options.Workers …") and carry no package prefix; imrdmd.New adds its
// own.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("Options.Workers must be >= 0, got %d", o.Workers)
	}
	if o.BlockColumns < 0 {
		return fmt.Errorf("Options.BlockColumns must be >= 0, got %d", o.BlockColumns)
	}
	if o.DriftWindow < 0 {
		return fmt.Errorf("Options.DriftWindow must be >= 0, got %d (0 = full grid)", o.DriftWindow)
	}
	if o.AmplitudeWindow < 0 {
		return fmt.Errorf("Options.AmplitudeWindow must be >= 0, got %d (0 = full grid)", o.AmplitudeWindow)
	}
	if o.ColdHorizon < 0 {
		return fmt.Errorf("Options.ColdHorizon must be >= 0, got %d (0 = no cold tier)", o.ColdHorizon)
	}
	if !(o.DriftThreshold >= 0) || math.IsInf(o.DriftThreshold, 1) {
		return fmt.Errorf("Options.DriftThreshold must be finite and >= 0, got %g (0 = never recompute)", o.DriftThreshold)
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
	// Level is 1-based (level 1 spans the whole timeline): absolute in a
	// Tree, the fit-time level inside an Incremental's segment.
	Level  int
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
	rc := recursion{opts: &opts, eng: compute.Shared(opts.Workers), ws: compute.NewWorkspace()}
	nodes, err := rc.decompose(work, 1, 0)
	if err != nil {
		return nil, err
	}
	return &Tree{Nodes: nodes, P: p, T: t, Opts: opts}, nil
}

// ErrNoSensors is returned when the input matrix has no rows.
var ErrNoSensors = errors.New("core: input has no sensors (zero rows)")

// errNonFinite rejects input holding a NaN or ±Inf reading.
var errNonFinite = errors.New("core: input contains NaN or Inf")

// checkInput rejects data no decomposition can start from: no rows
// (sensors), fewer than two snapshot columns, or a NaN/Inf reading.
func checkInput(data *mat.Dense) error {
	if err := checkShape(data); err != nil {
		return err
	}
	if data.HasNaN() {
		return errNonFinite
	}
	return nil
}

// checkShape is checkInput without the NaN/Inf screen, for callers that
// screen while they copy.
func checkShape(data *mat.Dense) error {
	p, t := data.Dims()
	if p == 0 {
		return ErrNoSensors
	}
	if t < 2 {
		return dmd.ErrTooFewSnapshots
	}
	return nil
}

// recursion is what every window of one mrDMD recursion shares. It is
// small enough for the sibling closures to capture by value, which keeps
// a split allocation-free.
type recursion struct {
	opts *Options
	eng  *compute.Engine
	ws   *compute.Workspace
	// rows is 0 until the recursion reaches its first narrow residual,
	// which decides the route of its whole subtree (splitDecompose).
	// From there on it is the P the windows stand for (dmd.Options.Rows):
	// their own row count in P space, and the residual's on the factor
	// route, whose windows are n-row coordinates of it.
	rows int
}

// decompose processes one window (data is the residual for this window and
// may be mutated by slow-mode subtraction), returning the flattened nodes
// of the subtree. start is the window's global column offset, level its
// 1-based depth. Sibling subtrees run concurrently on the engine when
// opts.Parallel is set; the workspace is shared (it is concurrency-safe)
// so every branch draws scratch from one pool.
func (rc recursion) decompose(data *mat.Dense, level, start int) ([]*Node, error) {
	n := data.C
	leaf := level >= rc.opts.MaxLevels || n < 2*rc.opts.MinWindow
	// A leaf's residual is read by no one, so its slow part is not
	// subtracted.
	node, err := rc.processWindow(data, level, start, !leaf)
	if err != nil {
		return nil, err
	}
	nodes := []*Node{node}
	if leaf {
		return nodes, nil
	}
	children, err := rc.splitDecompose(data, level+1, start)
	if err != nil {
		return nil, err
	}
	return append(nodes, children...), nil
}

// Bounds of the factor route (DESIGN §5, "One factor per narrow
// subtree"). factorMaxCols caps the residual width, so the n×n factor
// work (Cholesky, inverse, κ test and the n-row window fits) stays small
// beside the P-sized passes it replaces while every streamed 40-column
// batch qualifies. factorMaxCond bounds κ₁(R₁): the Gram route's error
// grows with u·κ², which stays below 1.1e-10 under it, where the P-space
// route's grows with u·κ.
const (
	factorMaxCols = 64
	factorMaxCond = 1e3
)

// splitDecompose halves resid and decomposes both halves at the given
// level; resid may be mutated. Used by the batch recursion and by every
// incremental subtree fit. The first residual of a recursion with at
// most factorMaxCols columns decides its subtree's route once: the
// factor route (factorSubtree) when it is tall enough for it and its
// Gram factor passes the conditioning test, otherwise P space all the
// way down, bit for bit the recursion without the factor route.
func (rc recursion) splitDecompose(resid *mat.Dense, level, start int) ([]*Node, error) {
	if rc.rows == 0 && resid.C <= factorMaxCols {
		if nodes, ok, err := rc.factorSubtree(resid, level, start); ok {
			return nodes, err
		}
		rc.rows = resid.R
	}
	return rc.splitHalves(resid, level, start)
}

// splitHalves decomposes the two column halves of resid in place —
// concurrently on the engine when opts.Parallel is set. Nothing reads
// resid after the split, so the halves are views.
func (rc recursion) splitHalves(resid *mat.Dense, level, start int) ([]*Node, error) {
	n := resid.C
	half := n / 2
	left := mat.ColsView(resid, 0, half)
	right := mat.ColsView(resid, half, n)

	var (
		lnodes, rnodes    []*Node
		leftErr, rightErr error
	)
	runLeft := func() { lnodes, leftErr = rc.decompose(left, level, start) }
	runRight := func() { rnodes, rightErr = rc.decompose(right, level, start+half) }
	if rc.opts.Parallel && rc.eng.Workers() > 1 {
		rc.eng.Do(runLeft, runRight)
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

// factorSubtree fits the subtree of a narrow, tall residual on one factor
// of it. Every window of the subtree lies in the span of resid's n
// columns, so with resid = Q·R₁ (Q = resid·R₁⁻¹ orthonormal) the whole
// recursion runs unchanged on the n×n R₁: each window's fit, slow-part
// subtraction and split act on Q-coordinates, and only the kept modes
// meet P again, all in one lift φ = resid·(R₁⁻¹·φₙ). R₁ is the Cholesky
// factor of residᵀ·resid, accepted only when κ₁(R₁) ≤ factorMaxCond. ok
// reports whether the route was taken; when it is not, resid is
// untouched and the caller splits it in P space. resid is not mutated
// either way.
func (rc recursion) factorSubtree(resid *mat.Dense, level, start int) (nodes []*Node, ok bool, err error) {
	p, n := resid.Dims()
	if n > factorMaxCols || p < svd.QRPrecondRatio*n {
		return nil, false, nil
	}
	r, rinv := mat.CholeskyGramWith(rc.eng, rc.ws, resid)
	if r == nil {
		return nil, false, nil
	}
	if !(norm1(r)*norm1(rinv) <= factorMaxCond) {
		mat.PutDense(rc.ws, r)
		mat.PutDense(rc.ws, rinv)
		return nil, false, nil
	}
	inner := rc
	inner.rows = p
	nodes, err = inner.splitHalves(r, level, start)
	mat.PutDense(rc.ws, r)
	if err == nil {
		liftNodes(rc.eng, rc.ws, nodes, resid, rinv)
	}
	mat.PutDense(rc.ws, rinv)
	return nodes, true, err
}

// norm1 returns the 1-norm of m, its largest absolute column sum.
func norm1(m *mat.Dense) float64 {
	var mx float64
	for j := 0; j < m.C; j++ {
		var s float64
		for i := 0; i < m.R; i++ {
			s += math.Abs(m.At(i, j))
		}
		mx = math.Max(mx, s)
	}
	return mx
}

// liftNodes maps every kept mode of nodes from the factor's coordinates
// to P in one GEMM, φ = resid·(R₁⁻¹·φₙ) on the 2K real planes of the K
// modes, and recomputes each mode's Power (‖φ‖²) from its lifted
// column. Each node's columns share one allocation, as dmd's own lift
// does.
func liftNodes(e *compute.Engine, ws *compute.Workspace, nodes []*Node, resid, rinv *mat.Dense) {
	k := numModes(nodes)
	if k == 0 {
		return
	}
	p, n := resid.R, rinv.R
	// Column pair (2q, 2q+1) holds Re φ and Im φ of the q-th mode in
	// node order.
	planes := mat.GetDenseRaw(ws, n, 2*k)
	q := 0
	for _, nd := range nodes {
		for _, m := range nd.Modes {
			for i, v := range m.Phi {
				row := planes.Row(i)
				row[2*q], row[2*q+1] = real(v), imag(v)
			}
			q++
		}
	}
	z := mat.MulWith(e, ws, rinv, planes)
	mat.PutDense(ws, planes)
	lifted := mat.MulWith(e, ws, resid, z)
	mat.PutDense(ws, z)
	cols := make([][]complex128, 0, k)
	for _, nd := range nodes {
		phis := make([]complex128, len(nd.Modes)*p)
		for jj := range nd.Modes {
			cols = append(cols, phis[jj*p:(jj+1)*p:(jj+1)*p])
		}
	}
	// One sequential sweep of lifted's rows fills every column.
	pow := ws.GetF64Zero(k)
	for i := 0; i < p; i++ {
		row := lifted.Row(i)[:2*k]
		for q, col := range cols {
			re, im := row[2*q], row[2*q+1]
			col[i] = complex(re, im)
			pow[q] += re*re + im*im
		}
	}
	q = 0
	for _, nd := range nodes {
		for jj := range nd.Modes {
			nd.Modes[jj].Phi, nd.Modes[jj].Power = cols[q], pow[q]
			q++
		}
	}
	ws.PutF64(pow)
	mat.PutDense(ws, lifted)
}

// processWindow runs the per-window step: subsample, DMD and slow-mode
// selection, then, when subtract is set, the slow-part subtraction that
// leaves data holding the window's residual.
func (rc recursion) processWindow(data *mat.Dense, level, start int, subtract bool) (*Node, error) {
	opts, eng, ws := rc.opts, rc.eng, rc.ws
	n := data.C
	stride := windowStride(n, *opts)
	// At stride 1 the DMD reads the window itself: nothing mutates data
	// until the fit below has returned.
	sub := mat.ColsView(data, 0, n)
	if stride > 1 {
		sub = mat.SubsampleWith(ws, data, stride)
	}
	dtSub := float64(stride) * opts.DT
	rho := float64(opts.MaxCycles) / (float64(n) * opts.DT)

	dec, err := dmd.ComputeSlow(sub, dmd.Options{
		DT: dtSub, Rank: opts.Rank, UseSVHT: opts.UseSVHT, Rows: rc.rows,
		Engine: eng, Ws: ws,
	}, rho)
	mat.PutDense(ws, sub) // a no-op for the view
	if err != nil {
		return nil, fmt.Errorf("core: level %d window [%d,%d): %w", level, start, start+n, err)
	}
	node := &Node{
		Level:       level,
		Start:       start,
		End:         start + n,
		Stride:      stride,
		Modes:       dec.Modes,
		NumAllModes: dec.Rank,
	}
	if subtract && len(dec.Modes) > 0 {
		times := ws.GetF64(n)
		for k := range times {
			times[k] = float64(k) * opts.DT
		}
		// Accumulate-mode GEMMs flip the slow part out of the window in
		// place — no p×n reconstruction scratch, no separate subtract pass.
		dmd.SubReconstructionWith(eng, ws, data, dec.Modes, times)
		ws.PutF64(times)
	}
	return node, nil
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
	return reconstructNodes(t.Nodes, t.P, t.T, t.Opts)
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
	return reconstructNodes(kept, t.P, t.T, t.Opts)
}

// reconstructNodes sums the nodes' slow reconstructions over a P×T
// matrix, each through addNodeWindow over its own window — the mode sum
// ReconError streams window by window.
func reconstructNodes(nodes []*Node, p, t int, opts Options) *mat.Dense {
	out := mat.NewDense(p, t)
	eng, ws := compute.Shared(opts.Workers), compute.NewWorkspace()
	for _, nd := range nodes {
		addNodeWindow(eng, ws, out, nd, 0, t, opts.DT)
	}
	return out
}

// Spectrum flattens every node's modes into spectrum points (Fig. 5/7).
func (t *Tree) Spectrum() []dmd.SpectrumPoint {
	return spectrumOf(t.Nodes, numModes(t.Nodes))
}

// spectrumOf flattens the modes of nodes, numModes of them in all, into
// one slice sized once; no modes gives nil. It walks every node and
// mode: the reference the Incremental's frozen spectrum (Spectrum,
// View) must equal bit for bit.
func spectrumOf(nodes []*Node, numModes int) []dmd.SpectrumPoint {
	if numModes == 0 {
		return nil
	}
	pts := make([]dmd.SpectrumPoint, 0, numModes)
	for _, nd := range nodes {
		pts = appendNodePoints(pts, nd, nd.Level)
	}
	return pts
}

// appendNodePoints appends one spectrum point per mode of nd, labelled
// with level.
func appendNodePoints(pts []dmd.SpectrumPoint, nd *Node, level int) []dmd.SpectrumPoint {
	for _, m := range nd.Modes {
		pts = append(pts, dmd.SpectrumPoint{
			Freq:  m.Freq,
			Power: m.Power,
			Amp:   cmplx.Abs(m.Amp),
			Grow:  real(m.Psi),
			Level: level,
		})
	}
	return pts
}

// NumModes counts retained modes across the tree.
func (t *Tree) NumModes() int { return numModes(t.Nodes) }

func numModes(nodes []*Node) int {
	c := 0
	for _, n := range nodes {
		c += len(n.Modes)
	}
	return c
}

// MaxLevel returns the deepest level present.
func (t *Tree) MaxLevel() int { return maxLevel(t.Nodes) }

func maxLevel(nodes []*Node) int {
	m := 0
	for _, n := range nodes {
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
	return readingLevels(t.Nodes, t.P, t.T, t.Opts.DT, band)
}

func readingLevels(nodes []*Node, p, t int, dt float64, band FreqBand) []float64 {
	acc := make([]float64, p)
	for _, nd := range nodes {
		end := min(nd.End, t)
		if end <= nd.Start {
			continue
		}
		for _, m := range nd.Modes {
			if m.Freq < band.Lo || m.Freq > band.Hi {
				continue
			}
			// S = Σ e^{ψ·(k−Start)Δt} over the node's window; the mode's
			// contribution to sensor i's time-sum is Re(φᵢ·b·S).
			var s complex128
			for k := nd.Start; k < end; k++ {
				s += dmd.ExpPsiT(m.Psi, float64(k-nd.Start)*dt)
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
	inv := 1 / float64(t)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}
