package imrdmd

import (
	"errors"
	"fmt"
	"io"
	"math"

	"imrdmd/internal/baseline"
	"imrdmd/internal/core"
	"imrdmd/internal/dmd"
	"imrdmd/internal/rack"
	"imrdmd/internal/viz"
)

// Options configures an Analyzer; see core.Options for each field. The
// zero value gets sensible defaults (DT=1, MaxLevels=6, MaxCycles=2, 4×
// Nyquist sampling).
type Options = core.Options

// UpdateStats reports one PartialFit; see core.UpdateStats.
type UpdateStats = core.UpdateStats

// SpectrumPoint is one mode in the mrDMD power spectrum: frequency
// (Eq. 9), power ‖φ‖² (Eq. 10), amplitude |b|, growth rate Re ψ, and the
// tree level the mode came from.
type SpectrumPoint = dmd.SpectrumPoint

// MemStats is the analyzer's resident history footprint by storage tier
// (see Options.ColdHorizon).
type MemStats = core.MemStats

// Analyzer is the public I-mrDMD pipeline: initial fit, streamed partial
// fits, reconstruction, spectrum and baseline z-scores. Before InitialFit
// its readers return empty results (an empty spectrum, a 0×0
// reconstruction, zero counts) and ZScores an error.
type Analyzer struct {
	inc *core.Incremental
}

// New creates an Analyzer. It returns a descriptive error when opts holds
// an invalid knob (negative Workers, BlockColumns or window sizes, a
// negative or non-finite DriftThreshold) instead of silently accepting
// it.
func New(opts Options) (*Analyzer, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("imrdmd: %w", err)
	}
	return &Analyzer{inc: core.NewIncremental(opts)}, nil
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
// descriptive error. Restore reads r in 64 KiB blocks and may read up
// to one block past the snapshot's trailer: r should hold the one
// snapshot, or the caller must not need the bytes after it.
func Restore(r io.Reader) (*Analyzer, error) {
	inc, err := core.DecodeIncremental(r)
	if err != nil {
		return nil, fmt.Errorf("imrdmd: restore: %w", err)
	}
	return &Analyzer{inc: inc}, nil
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
	return a.inc.PartialFit(s.dense())
}

// Steps returns the number of absorbed time steps.
func (a *Analyzer) Steps() int { return a.inc.Cols() }

// Updates returns the number of PartialFits applied.
func (a *Analyzer) Updates() int { return a.inc.Updates() }

// DriftLog returns the drift recorded at recent PartialFits, oldest
// first. The log is bounded: after very long streams only the most recent
// entries (1024) are retained.
func (a *Analyzer) DriftLog() []float64 { return a.inc.DriftLog() }

// MemStats reports the history-tier memory accounting — flat in stream
// length for the hot part, halved for everything past ColdHorizon.
func (a *Analyzer) MemStats() MemStats { return a.inc.MemStats() }

// Reconstruction returns the mrDMD approximation of everything absorbed —
// the denoised signal of Fig. 3.
func (a *Analyzer) Reconstruction() *Series {
	return &Series{m: a.inc.Reconstruct()}
}

// ReconstructionError returns ‖data − reconstruction‖_F, the quantity the
// paper reports per case study.
func (a *Analyzer) ReconstructionError() float64 { return a.inc.ReconError() }

// Spectrum returns every retained mode's spectrum point (Figs. 5/7).
func (a *Analyzer) Spectrum() []SpectrumPoint { return a.inc.Spectrum() }

// NumModes returns the total retained mode count.
func (a *Analyzer) NumModes() int { return a.inc.NumModes() }

// Levels returns the deepest level currently in the tree.
func (a *Analyzer) Levels() int { return a.inc.MaxLevel() }

// ModeMagnitudes returns, per sensor, the amplitude-weighted spectral
// mode magnitude over modes with frequency in [lo, hi] — a spectral view
// of where each sensor's energy lives.
func (a *Analyzer) ModeMagnitudes(lo, hi float64) []float64 {
	return a.inc.ModeMagnitudes(core.FreqBand{Lo: lo, Hi: hi})
}

// ReadingLevels returns, per sensor, the time-mean of the band-limited
// reconstruction — the denoised "readings of interest" the case studies
// standardize (hot nodes read high, stalled nodes read low).
func (a *Analyzer) ReadingLevels(lo, hi float64) []float64 {
	if math.IsInf(hi, 1) {
		hi = math.MaxFloat64
	}
	return a.inc.ReadingLevels(core.FreqBand{Lo: lo, Hi: hi})
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
