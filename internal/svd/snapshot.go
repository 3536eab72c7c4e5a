package svd

import (
	"fmt"

	"imrdmd/internal/codec"
	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// Encode serializes the running decomposition: the factors plus every
// knob and counter that shapes future updates — MaxRank/DropTol decide
// truncation, reorthEvery and the update counter phase the periodic
// re-orthogonalization — so a decoded Incremental continues the update
// stream bit-compatibly with the original.
func (inc *Incremental) Encode(w *codec.Writer) {
	w.Dense(inc.U)
	w.Floats(inc.S)
	w.Dense(inc.V)
	w.Int(inc.MaxRank)
	w.Float(inc.DropTol)
	w.Int(inc.reorthEvery)
	w.Int(inc.updates)
}

// DecodeIncrementalState reconstructs an Incremental written by Encode,
// attaching the given engine and workspace (nil ws creates a private one;
// nil eng runs serially). Factor shapes are cross-checked so a corrupt
// stream fails here instead of deep inside a later update.
func DecodeIncrementalState(r *codec.Reader, eng *compute.Engine, ws *compute.Workspace) (*Incremental, error) {
	u := r.Dense()
	s := r.Floats()
	v := r.Dense()
	maxRank := r.Int()
	dropTol := r.Float()
	reorthEvery := r.Int()
	updates := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if u == nil || v == nil || u.C != len(s) || v.C != len(s) {
		return nil, fmt.Errorf("svd: decoded factor shapes inconsistent (U %s, %d singular values, V %s)",
			shapeOf(u), len(s), shapeOf(v))
	}
	if ws == nil {
		ws = compute.NewWorkspace()
	}
	return &Incremental{
		U:           u,
		S:           s,
		V:           v,
		MaxRank:     maxRank,
		DropTol:     dropTol,
		reorthEvery: reorthEvery,
		updates:     updates,
		eng:         eng,
		ws:          ws,
	}, nil
}

func shapeOf(m *mat.Dense) string {
	if m == nil {
		return "nil"
	}
	return fmt.Sprintf("%d×%d", m.R, m.C)
}
