package imrdmd

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"imrdmd/internal/baseline"
	"imrdmd/internal/core"
	"imrdmd/internal/rack"
	"imrdmd/internal/viz"
)

// Options configures an Analyzer. The zero value gets sensible defaults
// (DT=1, MaxLevels=6, MaxCycles=2, 4× Nyquist sampling).
type Options struct {
	// DT is the sampling interval between columns (any consistent time
	// unit; output frequencies are cycles per that unit).
	DT float64
	// MaxLevels bounds the multiresolution recursion depth.
	MaxLevels int
	// MaxCycles is the slow-mode threshold per window (paper default 2).
	MaxCycles int
	// NyquistFactor oversamples each window relative to Nyquist (paper
	// uses 4).
	NyquistFactor int
	// Rank fixes the SVD truncation rank; 0 defers to SVHT.
	Rank int
	// UseSVHT enables Gavish–Donoho optimal hard thresholding
	// (do_svht=True in the paper's Fig. 9 configuration).
	UseSVHT bool
	// MinWindow stops recursion below this many columns.
	MinWindow int
	// Parallel decomposes sibling windows concurrently on the analyzer's
	// compute engine.
	Parallel bool
	// Workers sizes the analyzer's compute-engine worker pool — matrix
	// kernels, sibling-window recursion and drift recomputations all run
	// on one long-lived pool of Workers−1 goroutines, with each calling
	// goroutine contributing its own lane. 0 uses a GOMAXPROCS-sized
	// pool. The pool is process-wide per Workers value: analyzers
	// configured with the same count share the same pool workers (each
	// concurrent caller still adds its one inline lane). Each distinct
	// Workers value pins one permanent pool for the process lifetime, so
	// prefer a few fixed sizes over per-request values. See DESIGN.md §2.
	Workers int
	// BlockColumns chunks the incremental level-1 SVD's absorption of
	// newly sampled columns: each chunk of BlockColumns columns costs one
	// residual QR plus one small core SVD, so larger blocks amortize the
	// factorization cost of sustained streams (1 = column at a time;
	// 8 is a good streaming default). 0 keeps the pre-knob behavior of
	// absorbing each PartialFit's samples as one block. Any setting
	// yields the same subspace up to rank truncation — reconstruction
	// error is test-pinned to match within 1e-8. See DESIGN.md §5.
	BlockColumns int
	// DriftWindow bounds the drift measurement — the per-update comparison
	// of old versus new level-1 slow reconstructions — to the trailing
	// DriftWindow level-1 grid columns, making that stage O(window) instead
	// of O(absorbed history). 0 (the default) measures over the full grid,
	// bit-identical to prior releases. Pairs naturally with DriftThreshold:
	// a bounded window reacts to recent change rather than diluting it
	// across the whole timeline. See DESIGN.md §10.
	DriftWindow int
	// AmplitudeWindow bounds the level-1 amplitude refit (the Jovanović
	// least-squares fit re-run every PartialFit) to the trailing
	// AmplitudeWindow level-1 grid columns. Amplitudes stay referenced to
	// t=0; modes that decayed away before the window opens are reported
	// with amplitude 0 (the window carries no information about them).
	// 0 (the default) fits over the full grid, bit-identical to prior
	// releases. See DESIGN.md §10 for the agreement tolerances.
	AmplitudeWindow int
	// ColdHorizon, when positive, demotes absorbed raw columns older than
	// this many steps from float64 to float32 chunk storage — roughly
	// halving resident history bytes for long streams. The trailing
	// ColdHorizon columns (and everything the update pipeline fits
	// against) stay exact f64; only full-resolution raw reads (Raw,
	// ReconstructionError, snapshots) and DriftThreshold recomputes of
	// windows older than the horizon observe the ≤2⁻²⁴ relative rounding
	// on cold columns. 0 (the default) keeps all history in float64.
	// See DESIGN.md §10.
	ColdHorizon int

	// DriftThreshold, when positive, recomputes previously fitted levels
	// when the level-1 slow-mode drift exceeds it (Algorithm 1's
	// user-defined threshold). The recompute runs inside the PartialFit
	// that measured the drift, so its result is in place when the call
	// returns.
	DriftThreshold float64
}

func (o Options) toCore() core.Options {
	return core.Options{
		DT:              o.DT,
		MaxLevels:       o.MaxLevels,
		MaxCycles:       o.MaxCycles,
		NyquistFactor:   o.NyquistFactor,
		Rank:            o.Rank,
		UseSVHT:         o.UseSVHT,
		MinWindow:       o.MinWindow,
		Parallel:        o.Parallel,
		Workers:         o.Workers,
		BlockColumns:    o.BlockColumns,
		DriftWindow:     o.DriftWindow,
		AmplitudeWindow: o.AmplitudeWindow,
		ColdHorizon:     o.ColdHorizon,
	}
}

// Validate rejects option values that would otherwise be accepted
// silently and misbehave later (negative Workers, BlockColumns or window
// sizes). The zero value of every field is valid; defaults
// are filled at fit time. The rules live in core.Options.Validate —
// this wrapper only re-homes the error prefix.
func (o Options) Validate() error {
	if err := o.toCore().Validate(); err != nil {
		return fmt.Errorf("imrdmd: %s", strings.TrimPrefix(err.Error(), "core: "))
	}
	return nil
}

// UpdateStats reports one PartialFit (see core.UpdateStats).
type UpdateStats struct {
	// Drift is the Frobenius norm of the level-1 slow-mode change over
	// the previously fitted window.
	Drift float64
	// Recomputed reports whether older levels were recomputed.
	Recomputed bool
	// NewColumns is the number of absorbed time steps.
	NewColumns int
}

// SpectrumPoint is one mode in the mrDMD power spectrum: frequency
// (Eq. 9), power ‖φ‖² (Eq. 10), amplitude |b|, growth rate Re ψ, and the
// tree level the mode came from.
type SpectrumPoint struct {
	Freq  float64
	Power float64
	Amp   float64
	Grow  float64
	Level int
}

// Analyzer is the public I-mrDMD pipeline: initial fit, streamed partial
// fits, reconstruction, spectrum and baseline z-scores. Before InitialFit
// its readers return empty results (an empty spectrum, a 0×0
// reconstruction, zero counts) and ZScores an error.
type Analyzer struct {
	opts Options
	inc  *core.Incremental
}

// New creates an Analyzer. It returns a descriptive error when opts holds
// an invalid knob (negative Workers, BlockColumns or window sizes)
// instead of silently accepting it.
func New(opts Options) (*Analyzer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	inc := core.NewIncremental(opts.toCore())
	inc.DriftThreshold = opts.DriftThreshold
	return &Analyzer{opts: opts, inc: inc}, nil
}

// Snapshot serializes the analyzer's complete incremental state — the
// absorbed history, the multi-level window tree, the running level-1 SVD
// and every option and counter that shapes future updates — as a versioned binary stream. A Restore of that stream
// continues PartialFit streams bit-compatibly with the uninterrupted
// analyzer, which is what lets a long-running deployment survive process
// restarts or migrate tenants between hosts (cmd/imrdmd-serve exposes
// exactly this over HTTP). Snapshot holds the analyzer lock for the
// write; it is an error before InitialFit.
func (a *Analyzer) Snapshot(w io.Writer) error {
	return a.inc.Snapshot(w)
}

// Restore reconstructs an Analyzer from a Snapshot stream. The restored
// analyzer carries the snapshot's Options (including Workers) and is
// immediately ready for PartialFit. Streams from an
// unknown format version, truncated or corrupted input fail with a
// descriptive error.
func Restore(r io.Reader) (*Analyzer, error) {
	inc, err := core.DecodeIncremental(r)
	if err != nil {
		return nil, fmt.Errorf("imrdmd: restore: %w", err)
	}
	co := inc.Options()
	opts := Options{
		DT:              co.DT,
		MaxLevels:       co.MaxLevels,
		MaxCycles:       co.MaxCycles,
		NyquistFactor:   co.NyquistFactor,
		Rank:            co.Rank,
		UseSVHT:         co.UseSVHT,
		MinWindow:       co.MinWindow,
		Parallel:        co.Parallel,
		Workers:         co.Workers,
		BlockColumns:    co.BlockColumns,
		DriftWindow:     co.DriftWindow,
		AmplitudeWindow: co.AmplitudeWindow,
		ColdHorizon:     co.ColdHorizon,
		DriftThreshold:  inc.DriftThreshold,
	}
	return &Analyzer{opts: opts, inc: inc}, nil
}

// errNilSeries is returned by the fitting calls when handed a nil Series.
var errNilSeries = errors.New("imrdmd: nil Series")

// InitialFit runs the batch mrDMD over the first window and prepares the
// incremental state.
func (a *Analyzer) InitialFit(s *Series) error {
	if s == nil {
		return errNilSeries
	}
	return a.inc.InitialFit(s.dense())
}

// PartialFit absorbs newly streamed time steps (Algorithm 1).
func (a *Analyzer) PartialFit(s *Series) (UpdateStats, error) {
	if s == nil {
		return UpdateStats{}, errNilSeries
	}
	st, err := a.inc.PartialFit(s.dense())
	return UpdateStats{Drift: st.Drift, Recomputed: st.Recomputed, NewColumns: st.NewColumns}, err
}

// Steps returns the number of absorbed time steps.
func (a *Analyzer) Steps() int { return a.inc.Cols() }

// Updates returns the number of PartialFits applied.
func (a *Analyzer) Updates() int { return a.inc.Updates() }

// DriftLog returns the drift recorded at recent PartialFits, oldest
// first. The log is bounded: after very long streams only the most recent
// entries (1024) are retained.
func (a *Analyzer) DriftLog() []float64 { return a.inc.DriftLog() }

// MemStats is the analyzer's resident history footprint by storage tier
// (see Options.ColdHorizon).
type MemStats struct {
	// HotBytes / ColdBytes are the resident bytes of the exact float64
	// tail and the float32 cold chunks.
	HotBytes, ColdBytes int64
	// Steps counts all absorbed time steps; ColdSteps how many of them
	// live in the cold tier.
	Steps, ColdSteps int
}

// MemStats reports the history-tier memory accounting — flat in stream
// length for the hot part, halved for everything past ColdHorizon.
func (a *Analyzer) MemStats() MemStats {
	ms := a.inc.MemStats()
	return MemStats{HotBytes: ms.HotBytes, ColdBytes: ms.ColdBytes, Steps: ms.Cols, ColdSteps: ms.ColdCols}
}

// Reconstruction returns the mrDMD approximation of everything absorbed —
// the denoised signal of Fig. 3.
func (a *Analyzer) Reconstruction() *Series {
	return &Series{m: a.inc.Reconstruct()}
}

// ReconstructionError returns ‖data − reconstruction‖_F, the quantity the
// paper reports per case study.
func (a *Analyzer) ReconstructionError() float64 { return a.inc.ReconError() }

// Spectrum returns every retained mode's spectrum point (Figs. 5/7).
func (a *Analyzer) Spectrum() []SpectrumPoint {
	pts := a.inc.Spectrum()
	out := make([]SpectrumPoint, len(pts))
	for i, p := range pts {
		out[i] = SpectrumPoint{Freq: p.Freq, Power: p.Power, Amp: p.Amp, Grow: p.Grow, Level: p.Level}
	}
	return out
}

// NumModes returns the total retained mode count.
func (a *Analyzer) NumModes() int { return a.inc.Tree().NumModes() }

// Levels returns the deepest level currently in the tree.
func (a *Analyzer) Levels() int { return a.inc.Tree().MaxLevel() }

// ModeMagnitudes returns, per sensor, the amplitude-weighted spectral
// mode magnitude over modes with frequency in [lo, hi] — a spectral view
// of where each sensor's energy lives.
func (a *Analyzer) ModeMagnitudes(lo, hi float64) []float64 {
	return a.inc.Tree().ModeMagnitudes(core.FreqBand{Lo: lo, Hi: hi})
}

// ReadingLevels returns, per sensor, the time-mean of the band-limited
// reconstruction — the denoised "readings of interest" the case studies
// standardize (hot nodes read high, stalled nodes read low).
func (a *Analyzer) ReadingLevels(lo, hi float64) []float64 {
	if math.IsInf(hi, 1) {
		hi = math.MaxFloat64
	}
	return a.inc.Tree().ReadingLevels(core.FreqBand{Lo: lo, Hi: hi})
}

// ZScores standardizes band-limited reading levels against the baseline
// sensor population, as in the paper's case studies: z > 2 marks
// dangerously hot components, z < −1.5 idle or stalled nodes. It fails
// before InitialFit (there is no baseline yet) and on a baseline index
// that names no sensor.
func (a *Analyzer) ZScores(baselineIdx []int, lo, hi float64) ([]float64, error) {
	if a.inc.Cols() == 0 {
		return nil, baseline.ErrNoBaseline
	}
	return baseline.ZScores(a.ReadingLevels(lo, hi), baselineIdx)
}

// AddSensors extends the analyzer with new sensors carrying their full
// history (one row per new sensor, one column per absorbed step) — the
// paper's future-work extension, implemented (see DESIGN.md E13+).
func (a *Analyzer) AddSensors(s *Series) error {
	if s == nil {
		return errNilSeries
	}
	return a.inc.AddSensors(s.dense())
}

// Sensors returns the current sensor count.
func (a *Analyzer) Sensors() int { return a.inc.Sensors() }

// CompressionRatio returns raw-data bytes over retained-mode bytes — the
// paper's terabytes-to-megabytes compression measure.
func (a *Analyzer) CompressionRatio() float64 {
	return a.inc.Tree().CompressionRatio()
}

// StabilizedReconstruction reconstructs with growing modes projected to
// neutral growth, taming the mrDMD divergence the paper flags at fine
// temporal resolutions (§VI).
func (a *Analyzer) StabilizedReconstruction() *Series {
	tree := a.inc.Tree()
	tree.StabilizeGrowth()
	return &Series{m: tree.Reconstruct()}
}

// BaselineByMeanRange selects sensors whose time-mean lies in [lo, hi],
// the paper's baseline selection rule.
func BaselineByMeanRange(s *Series, lo, hi float64) []int {
	return baseline.SelectByMeanRange(s.dense(), lo, hi)
}

// ClassifyZ buckets a z-score into the paper's interpretation bands:
// "cold" (z < −1.5), "near-baseline", "warm", or "hot" (z > 2).
func ClassifyZ(z float64) string {
	return baseline.Classify(z).String()
}

// RackView renders an SVG rack-layout view of per-node z-scores using the
// paper's layout DSL (e.g. "xc40 1 2 row0-1:0-10 2 c:0-7 1 s:0-7 1 b:0
// n:0"). outlined nodes get the dark hardware-error outline; highlighted
// nodes the red outline.
func RackView(w io.Writer, layoutSpec, title string, z []float64, outlined, highlighted []int) error {
	layout, err := rack.Parse(layoutSpec)
	if err != nil {
		return err
	}
	toSet := func(idx []int) map[int]bool {
		if len(idx) == 0 {
			return nil
		}
		m := make(map[int]bool, len(idx))
		for _, i := range idx {
			m[i] = true
		}
		return m
	}
	return viz.RenderRackView(w, layout, z, viz.RackViewConfig{
		Title:       title,
		ZMax:        5,
		Outlined:    toSet(outlined),
		Highlighted: toSet(highlighted),
	})
}
