package core

import (
	"errors"
	"fmt"
	"io"
	"math"

	"imrdmd/internal/codec"
	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// This file is the snapshot/restore layer of the I-mrDMD state machine:
// the complete analyzer state — options, absorbed history, the level-1
// sample grid, the multi-level window tree, the incremental SVD and every
// counter that phases future updates — serialized through the
// internal/codec wire format. A decoded analyzer continues a PartialFit
// stream bit-compatibly with the uninterrupted original, which is what
// makes long-running tenants restartable and migratable (see DESIGN.md
// §8).

// isvdKind is the level-1 SVD kind tag written before its payload. The
// one layout is kind 0; the tag stays so snapshot bytes keep their
// layout, and any other value marks the stream corrupt (DESIGN.md §8).
const isvdKind = 0

// Snapshot serializes the analyzer's full state to w, holding the state
// lock for the duration of the write. Snapshot before InitialFit is an
// error — there is no state to save.
func (inc *Incremental) Snapshot(w io.Writer) error {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.hist == nil {
		return errors.New("core: Snapshot before InitialFit")
	}
	enc := codec.NewWriter(w)
	encodeOptions(enc, inc.opts)
	enc.Float(inc.opts.DriftThreshold) // its slot predates the Options field
	// Retired async-recompute flag: the slot stays so snapshot bytes keep
	// their layout; recomputes always run inline.
	enc.Bool(false)
	enc.Int(inc.p)
	// History, tier-structured: cold f32 chunks then the hot f64 tail.
	// The hot tier is one Dense section however many chunks hold it.
	enc.Int(mat.TieredChunkCols)
	cold := inc.hist.ColdChunks()
	enc.Int(len(cold))
	for _, ch := range cold {
		enc.Dense32(ch)
	}
	enc.DenseSegments(inc.hist.Rows(), inc.hist.Cols()-inc.hist.ColdCols(), inc.hist.HotChunks())
	enc.Int(inc.stride1)
	enc.Dense(inc.sub1)
	enc.Int(inc.nextSample)
	encodeNode(enc, inc.level1, 0)
	enc.Int(len(inc.segments)) // segment nodes at their tree levels
	for i, seg := range inc.segments {
		enc.Int(seg.start)
		enc.Int(seg.end)
		enc.Int(len(seg.nodes))
		for _, nd := range seg.nodes {
			encodeNode(enc, nd, inc.after(i))
		}
	}
	enc.Int(inc.updates)
	enc.Int(inc.recomputes)
	enc.Floats(inc.driftLogChrono())
	enc.Int(isvdKind)
	inc.isvd.Encode(enc)
	return enc.Close()
}

// DecodeIncremental reconstructs an analyzer written by Snapshot,
// resolving the compute engine from the snapshot's own Workers option.
// The codec reads r in 64 KiB blocks, so it may read up to one block
// past the snapshot's trailer; r should hold the one snapshot, as the
// reader of every caller in this repository does (a file, a request
// body, a bytes.Reader).
func DecodeIncremental(r io.Reader) (*Incremental, error) {
	return decodeIncremental(r, nil)
}

// DecodeIncrementalOn is DecodeIncremental with the lane count replaced:
// the analyzer runs on compute.Shared(workers) and records workers in
// its Options, as one built by NewIncremental with that Workers does —
// the hook a multi-tenant server uses to land every restored analyzer on
// its one bounded pool regardless of what the snapshot was running on.
// Like DecodeIncremental, it may read up to 64 KiB past the trailer.
func DecodeIncrementalOn(r io.Reader, workers int) (*Incremental, error) {
	return decodeIncremental(r, &workers)
}

// decodeIncremental decodes a snapshot; a non-nil workers replaces the
// snapshot's Workers option.
func decodeIncremental(r io.Reader, workers *int) (*Incremental, error) {
	dec, err := codec.NewReader(r)
	if err != nil {
		return nil, err
	}
	opts, err := decodeOptions(dec)
	if err != nil {
		return nil, err
	}
	// Releases that kept the threshold outside Options accepted any
	// value; a negative, NaN or +Inf one never triggered a recompute, so
	// it restores as 0, which acts the same.
	opts.DriftThreshold = dec.Float()
	if !(opts.DriftThreshold >= 0) || math.IsInf(opts.DriftThreshold, 1) {
		opts.DriftThreshold = 0
	}
	dec.Bool() // retired async-recompute flag, ignored (see Snapshot)
	p := dec.Len()
	// History: cold f32 chunks, then the hot f64 tail as one Dense
	// section, which decodes straight into the store's column chunks.
	// Every release wrote TieredChunkCols as the chunk width; cold chunks
	// of any other width fail TieredFromParts' shape check.
	dec.Int() // chunk width
	nCold := dec.Len()
	cold := make([]*mat.Dense32, 0, minCap(nCold, 64))
	for i := 0; i < nCold && dec.Err() == nil; i++ {
		cold = append(cold, dec.Dense32())
	}
	var hist *mat.TieredCols
	if hr, hc, hot := dec.DenseSegments(mat.TieredChunkCols); dec.Err() == nil {
		var terr error
		if hist, terr = mat.TieredFromParts(cold, hot, hr, hc); terr != nil {
			return nil, fmt.Errorf("%w: %v", codec.ErrCorrupt, terr)
		}
	}
	stride1 := dec.Int()
	sub1 := dec.Dense()
	nextSample := dec.Int()
	level1 := decodeNode(dec, 0)
	// Each segment node is stored at its tree level; it is kept at its
	// fit-time level, the stored one less the segments after its own.
	var segments []*segment
	nSeg := dec.Len()
	for i := 0; i < nSeg && dec.Err() == nil; i++ {
		start, end := dec.Int(), dec.Int()
		var nodes []*Node
		nNodes := dec.Len()
		for j := 0; j < nNodes && dec.Err() == nil; j++ {
			nodes = append(nodes, decodeNode(dec, nSeg-1-i))
		}
		segments = append(segments, newSegment(start, end, nodes))
	}
	updates := dec.Int()
	recomputes := dec.Int()
	driftLog := dec.Floats()
	kind := dec.Int()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	// Snapshot writes at most the ring's driftLogCap entries and always
	// the kind-0 level-1 payload; anything else is not a stream it wrote.
	if len(driftLog) > driftLogCap {
		return nil, fmt.Errorf("%w: drift log of %d entries exceeds %d", codec.ErrCorrupt, len(driftLog), driftLogCap)
	}
	if kind != isvdKind {
		return nil, fmt.Errorf("%w: unknown level-1 SVD kind %d", codec.ErrCorrupt, kind)
	}
	if workers != nil {
		opts.Workers = *workers
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	eng := compute.Shared(opts.Workers)
	ws := compute.NewWorkspace()

	inc := &Incremental{
		opts:       opts,
		p:          p,
		eng:        eng,
		ws:         ws,
		hist:       hist,
		stride1:    stride1,
		sub1:       sub1,
		nextSample: nextSample,
		level1:     level1,
		segments:   segments,
		updates:    updates,
		recomputes: recomputes,
		driftLog:   driftLog,
		driftPos:   len(driftLog) % driftLogCap,
	}

	if inc.isvd, err = svd.DecodeIncrementalState(dec, eng, ws); err != nil {
		return nil, err
	}
	if err := dec.Close(); err != nil {
		return nil, err
	}
	if err := inc.validateDecoded(); err != nil {
		return nil, err
	}
	inc.freezeSpectrumLocked()
	return inc, nil
}

// validateDecoded cross-checks the structural invariants PartialFit
// assumes, so a corrupt-but-checksum-valid stream (or a format bug) fails
// at restore time with a clear error instead of panicking mid-update.
func (inc *Incremental) validateDecoded() error {
	if inc.hist == nil || inc.sub1 == nil || inc.level1 == nil {
		return errors.New("core: decoded snapshot structurally incomplete")
	}
	if inc.hist.Rows() != inc.p || inc.sub1.R != inc.p {
		return fmt.Errorf("core: decoded row counts inconsistent (p=%d, raw %d, sub1 %d)",
			inc.p, inc.hist.Rows(), inc.sub1.R)
	}
	if inc.stride1 < 1 {
		return fmt.Errorf("core: decoded level-1 stride %d invalid", inc.stride1)
	}
	if inc.sub1.C < 2 || inc.sub1.C > inc.hist.Cols() {
		return fmt.Errorf("core: decoded sample grid (%d columns) inconsistent with %d absorbed columns",
			inc.sub1.C, inc.hist.Cols())
	}
	// nextSample is the next level-1 grid index: a stride multiple in
	// (raw.C - stride1, raw.C + stride1]. Anything else sends PartialFit's
	// grid loop out of range (negative gather indices) or into a
	// billion-iteration append — fail here instead.
	if t := inc.hist.Cols(); inc.nextSample%inc.stride1 != 0 || inc.nextSample < t || inc.nextSample > t+inc.stride1 {
		return fmt.Errorf("core: decoded next sample index %d inconsistent with %d columns at stride %d",
			inc.nextSample, t, inc.stride1)
	}
	// The level-1 SVD tracks X = sub1[:, :ns-1]: its factors must agree
	// with the sensor dimension and the grid width, or the next update's
	// GEMMs panic on shape.
	res := inc.isvd.ResultView()
	if res.U.R != inc.p || res.V.R != inc.sub1.C-1 {
		return fmt.Errorf("core: decoded level-1 SVD shape %d×%d factors for %d sensors × %d grid columns",
			res.U.R, res.V.R, inc.p, inc.sub1.C)
	}
	if err := inc.validateDecodedNode(inc.level1, 1, 1); err != nil {
		return err
	}
	for _, seg := range inc.segments {
		if seg.start < 0 || seg.end > inc.hist.Cols() || seg.end < seg.start {
			return fmt.Errorf("core: decoded segment window [%d,%d) outside the %d absorbed columns",
				seg.start, seg.end, inc.hist.Cols())
		}
		for _, nd := range seg.nodes {
			// A subtree fit puts its roots at level 2 and stops at
			// MaxLevels (recursion.decompose).
			if err := inc.validateDecodedNode(nd, 2, inc.opts.MaxLevels); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateDecodedNode checks the per-node invariants reconstruction and
// spectrum queries index by: the window inside the absorbed history,
// every mode's spatial vector spanning the sensor dimension, and the
// (fit-time, for a segment node) level in [lo, hi].
func (inc *Incremental) validateDecodedNode(n *Node, lo, hi int) error {
	if n.Start < 0 || n.End > inc.hist.Cols() || n.End < n.Start || n.Stride < 1 {
		return fmt.Errorf("core: decoded node window [%d,%d) stride %d outside the %d absorbed columns",
			n.Start, n.End, n.Stride, inc.hist.Cols())
	}
	if n.Level < lo || n.Level > hi {
		return fmt.Errorf("core: decoded node [%d,%d) at fit-time level %d outside [%d,%d]",
			n.Start, n.End, n.Level, lo, hi)
	}
	for i := range n.Modes {
		if len(n.Modes[i].Phi) != inc.p {
			return fmt.Errorf("core: decoded mode %d of node [%d,%d) has %d-sensor spatial vector, want %d",
				i, n.Start, n.End, len(n.Modes[i].Phi), inc.p)
		}
	}
	return nil
}

// Options returns the analyzer's (default-filled) configuration — what a
// restored server tenant reports as its options.
func (inc *Incremental) Options() Options {
	return inc.opts
}

// Engine returns the compute engine the analyzer runs on:
// compute.Shared(Options.Workers).
func (inc *Incremental) Engine() *compute.Engine {
	return inc.eng
}

// encodeOptions writes every persistent Options field. Workers records
// the lane count the analyzer was configured with; a snapshot restored
// in another process resolves its pool from it, unless the restorer
// passes its own lane count (DecodeIncrementalOn).
//
// The retired precision slot always carries "float64", the value every
// default-filled analyzer wrote before the float32 tier was removed, so
// a snapshot's bytes do not depend on which release wrote it.
func encodeOptions(w *codec.Writer, o Options) {
	w.Float(o.DT)
	w.Int(o.MaxLevels)
	w.Int(o.MaxCycles)
	w.Int(o.NyquistFactor)
	w.Int(o.Rank)
	w.Bool(o.UseSVHT)
	w.Int(o.MinWindow)
	w.Bool(o.Parallel)
	w.Int(o.Workers)
	w.Int(o.BlockColumns)
	w.String("float64") // retired precision slot (see above)
	w.Int(1)            // retired shard-count slot: 1, the unsharded value
	w.Int(o.DriftWindow)
	w.Int(o.AmplitudeWindow)
	w.Int(o.ColdHorizon)
}

// decodeOptions reads the persistent Options fields. The retired
// precision slot must hold "float64", the one value encodeOptions
// writes; anything else marks the stream corrupt.
func decodeOptions(r *codec.Reader) (Options, error) {
	o := Options{
		DT:            r.Float(),
		MaxLevels:     r.Int(),
		MaxCycles:     r.Int(),
		NyquistFactor: r.Int(),
		Rank:          r.Int(),
		UseSVHT:       r.Bool(),
		MinWindow:     r.Int(),
		Parallel:      r.Bool(),
		Workers:       r.Int(),
		BlockColumns:  r.Int(),
	}
	if prec := r.String(); prec != "float64" && r.Err() == nil {
		return Options{}, fmt.Errorf("%w: unknown precision %q in options", codec.ErrCorrupt, prec)
	}
	r.Int() // retired shard-count slot (see encodeOptions), ignored
	o.DriftWindow = r.Int()
	o.AmplitudeWindow = r.Int()
	o.ColdHorizon = r.Int()
	return o, nil
}

func minCap(n, cap int) int {
	if n < cap {
		return n
	}
	return cap
}

// encodeNode writes one tree node with its retained modes, its level
// raised by off.
func encodeNode(w *codec.Writer, n *Node, off int) {
	w.Int(n.Level + off)
	w.Int(n.Start)
	w.Int(n.End)
	w.Int(n.Stride)
	w.Int(n.NumAllModes)
	w.Int(len(n.Modes))
	for i := range n.Modes {
		m := &n.Modes[i]
		w.Complexes(m.Phi)
		w.Complex(m.Lambda)
		w.Complex(m.Psi)
		w.Complex(m.Amp)
		w.Float(m.Freq)
		w.Float(m.Power)
	}
}

// decodeNode reads one node written by encodeNode with the same off.
func decodeNode(r *codec.Reader, off int) *Node {
	n := &Node{
		Level:       r.Int() - off,
		Start:       r.Int(),
		End:         r.Int(),
		Stride:      r.Int(),
		NumAllModes: r.Int(),
	}
	nModes := r.Len()
	for i := 0; i < nModes && r.Err() == nil; i++ {
		n.Modes = append(n.Modes, dmd.Mode{
			Phi:    r.Complexes(),
			Lambda: r.Complex(),
			Psi:    r.Complex(),
			Amp:    r.Complex(),
			Freq:   r.Float(),
			Power:  r.Float(),
		})
	}
	return n
}
