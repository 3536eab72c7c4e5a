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
	return decoded(u, s, v, maxRank, dropTol, reorthEvery, updates, eng, ws)
}

// decoded cross-checks decoded factor shapes and assembles the
// Incremental both decoders return.
func decoded(u *mat.Dense, s []float64, v *mat.Dense, maxRank int, dropTol float64, reorthEvery, updates int, eng *compute.Engine, ws *compute.Workspace) (*Incremental, error) {
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

// DecodeLegacyShardedState reads the row-sharded level-1 state that
// snapshots written before the sharded update was removed carry (the
// level-1 kind-1 payload), into an Incremental that continues the stream
// on the one update path. The shards' rows were views into one contiguous
// left factor, which becomes U; Σ, V, the rank cap, the drop tolerance,
// the re-orthogonalization period and the update counter carry over. The
// shard offsets are shape-checked — they must start at 0, never decrease
// and end at U's row count — and then dropped, as are the f32-payload flag
// and the transport counters. eng and ws attach as in
// DecodeIncrementalState.
func DecodeLegacyShardedState(r *codec.Reader, eng *compute.Engine, ws *compute.Workspace) (*Incremental, error) {
	offs := r.Ints()
	u := r.Dense()
	s := r.Floats()
	v := r.Dense()
	maxRank := r.Int()
	dropTol := r.Float()
	reorthEvery := r.Int()
	r.Bool() // f32 reduce payloads
	updates := r.Int()
	for range 6 { // collective and broadcast counts, last payload size
		r.Int()
	}
	r.I64() // transport bytes
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(offs) < 2 || u == nil {
		return nil, fmt.Errorf("svd: decoded sharded state incomplete (%d offsets, U %s)", len(offs), shapeOf(u))
	}
	if offs[0] != 0 || offs[len(offs)-1] != u.R {
		return nil, fmt.Errorf("svd: decoded shard offsets [%d..%d] do not span the %d factor rows",
			offs[0], offs[len(offs)-1], u.R)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, fmt.Errorf("svd: decoded shard offsets not monotone at %d", i)
		}
	}
	return decoded(u, s, v, maxRank, dropTol, reorthEvery, updates, eng, ws)
}

func shapeOf(m *mat.Dense) string {
	if m == nil {
		return "nil"
	}
	return fmt.Sprintf("%d×%d", m.R, m.C)
}
