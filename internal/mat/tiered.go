package mat

import (
	"fmt"
	"math"

	"imrdmd/internal/compute"
)

// Tiered column storage (DESIGN.md §10). A TieredCols holds a growing
// sequence of columns in fixed-width column chunks: the trailing "hot"
// chunks stay in float64 and everything older is demoted to float32
// chunks — half the resident bytes for history that is only ever read
// back for full-resolution reconstruction error, segment recompute after
// drift, or snapshot export, all of which tolerate (and report) the
// f32-rounding of cold values. Demotion is explicit (Demote), so a caller
// that never demotes keeps an all-f64 store whose values read back
// bit-identically.

// Dense32 is a row-major, tightly packed float32 matrix: the storage
// format of the cold tier. It carries no arithmetic; a TieredCols window
// converts it back to float64 before any kernel touches it.
type Dense32 struct {
	R, C int
	Data []float32 // row-major: element (i,j) at Data[i*C+j]
}

// NewDense32 returns a zeroed r×c float32 matrix.
func NewDense32(r, c int) *Dense32 {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", r, c))
	}
	return &Dense32{R: r, C: c, Data: make([]float32, r*c)}
}

// At returns element (i, j).
func (m *Dense32) At(i, j int) float32 { return m.Data[i*m.C+j] }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense32) Row(i int) []float32 { return m.Data[i*m.C : (i+1)*m.C : (i+1)*m.C] }

// TieredChunkCols is the width of every history chunk in both tiers:
// chunk k covers global columns [k·TieredChunkCols, (k+1)·TieredChunkCols),
// so hot and cold chunk boundaries coincide, growth writes into at most a
// few chunks, each demotion is one bounded O(P·chunk) pass, and chunk
// bookkeeping stays O(T/chunk).
const TieredChunkCols = 256

// TieredCols is a P×T column store whose first ColdCols() columns live as
// float32 chunks and whose tail lives as float64 chunks, the last of them
// (the open tail) partly filled. Every chunk is its own exact P×chunk
// allocation — none comes from, or goes back to, a Workspace pool, whose
// power-of-two classes would round a chunk up to twice its size — so
// growth never copies history and the resident bytes exceed the data by
// less than one chunk. It is not concurrency-safe; callers serialize
// access (the analyzer lock).
type TieredCols struct {
	r    int
	n    int        // committed columns across both tiers
	cold []*Dense32 // each r×TieredChunkCols, oldest first
	// hot[k] is packed and covers global columns from
	// (len(cold)+k)·TieredChunkCols on. Each is r×TieredChunkCols except
	// that a restored store's last one holds only its own columns until
	// Grow widens it.
	hot []*Dense
}

// NewTieredCols returns an empty store of r rows.
func NewTieredCols(r int) *TieredCols {
	if r < 0 {
		panic(fmt.Sprintf("mat: negative row count %d", r))
	}
	return &TieredCols{r: r}
}

// TieredFromParts rebuilds a store of rows rows from decoded parts: the
// cold chunks and the hot tier's hotCols columns as consecutive column
// segments of TieredChunkCols (the last one possibly narrower). It
// validates the shape invariants a corrupt snapshot could violate.
// Ownership of cold and hot transfers to the store.
func TieredFromParts(cold []*Dense32, hot []*Dense, rows, hotCols int) (*TieredCols, error) {
	const w = TieredChunkCols
	for i, c := range cold {
		if c == nil || c.R != rows || c.C != w || len(c.Data) != rows*w {
			return nil, fmt.Errorf("mat: cold chunk %d shape inconsistent with a %d-row store (chunk %d)", i, rows, w)
		}
	}
	covered := 0
	for k, h := range hot {
		last := k == len(hot)-1
		if h == nil || h.R != rows || h.C < 1 || h.C > w || (!last && h.C != w) || !h.packed() {
			return nil, fmt.Errorf("mat: hot segment %d shape inconsistent with a %d-row store (chunk %d)", k, rows, w)
		}
		covered += h.C
	}
	if covered != hotCols {
		return nil, fmt.Errorf("mat: hot segments cover %d of %d columns", covered, hotCols)
	}
	return &TieredCols{r: rows, n: len(cold)*w + hotCols, cold: cold, hot: hot}, nil
}

// Rows returns the row (sensor) dimension.
func (t *TieredCols) Rows() int { return t.r }

// Cols returns the total column count across both tiers.
func (t *TieredCols) Cols() int { return t.n }

// ColdCols returns how many leading columns live in the f32 tier.
func (t *TieredCols) ColdCols() int { return len(t.cold) * TieredChunkCols }

// HotChunks returns the hot-tier chunks, oldest first; together they hold
// the Cols() − ColdCols() trailing columns, the last chunk possibly only
// in part. Read-only; for serialization.
func (t *TieredCols) HotChunks() []*Dense { return t.hot }

// ColdChunks returns the cold-tier chunks, oldest first. Read-only; for
// serialization.
func (t *TieredCols) ColdChunks() []*Dense32 { return t.cold }

// At returns element (i, j) with j a global column index, widening cold
// values to float64.
func (t *TieredCols) At(i, j int) float64 {
	q, c := j/TieredChunkCols, j%TieredChunkCols
	if q < len(t.cold) {
		return float64(t.cold[q].Data[i*TieredChunkCols+c])
	}
	h := t.hot[q-len(t.cold)]
	return h.Data[i*h.C+c]
}

// Grow appends b's columns, writing only them — O(P·Δ) whatever the
// history length — and opening a new chunk each time the tail fills. The
// copy also screens the values: if any is NaN or ±Inf the batch is
// rejected, Cols() stays where it was, any chunk opened for it is
// released, and Grow reports false.
func (t *TieredCols) Grow(b *Dense) bool {
	if b.R != t.r {
		panic(fmt.Sprintf("mat: TieredCols.Grow row mismatch %d vs %d", b.R, t.r))
	}
	const w = TieredChunkCols
	n0, n1 := t.n, t.n+b.C
	base, kept := len(t.cold)*w, len(t.hot)
	var narrow *Dense // a restored tail, replaced by a full-width chunk
	if kept > 0 {
		if tail := t.hot[kept-1]; tail.C < w && n1 > base+(kept-1)*w+tail.C {
			narrow = tail
			wide := NewDense(t.r, w)
			for i := 0; i < t.r; i++ {
				copy(wide.Data[i*w:], tail.Row(i))
			}
			t.hot[kept-1] = wide
		}
	}
	for base+len(t.hot)*w < n1 {
		t.hot = append(t.hot, NewDense(t.r, w))
	}
	var bad uint64
	for j := n0; j < n1; {
		c0 := j % w
		n := min(w-c0, n1-j)
		ch := t.hot[(j-base)/w]
		for i := 0; i < t.r; i++ {
			bad |= copyFinite(ch.Data[i*w+c0:i*w+c0+n], b.Row(i)[j-n0:j-n0+n])
		}
		j += n
	}
	if bad&(1<<63) != 0 {
		clear(t.hot[kept:])
		t.hot = t.hot[:kept]
		if narrow != nil {
			t.hot[kept-1] = narrow
		}
		return false
	}
	t.n = n1
	return true
}

// copyFinite copies src into dst and returns a word whose top bit is set
// iff some value is NaN or ±Inf: adding one to a value's exponent field
// carries into bit 63 only when that field is all ones.
func copyFinite(dst, src []float64) uint64 {
	const expMask, expOne = 0x7ff0_0000_0000_0000, 0x0010_0000_0000_0000
	dst = dst[:len(src)]
	var bad uint64
	for k, v := range src {
		dst[k] = v
		bad |= math.Float64bits(v)&expMask + expOne
	}
	return bad
}

// Demote narrows the oldest hot chunks to float32, whole chunks at a time,
// until fewer than horizon + TieredChunkCols hot columns remain (so the
// trailing horizon columns always stay exact). It returns how many
// columns were demoted. The hot chunks it keeps do not move.
func (t *TieredCols) Demote(horizon int) int {
	moved := 0
	for t.n-t.ColdCols()-TieredChunkCols >= max(horizon, 0) {
		t.cold = append(t.cold, Narrow(t.hot[0]))
		copy(t.hot, t.hot[1:])
		t.hot[len(t.hot)-1] = nil
		t.hot = t.hot[:len(t.hot)-1]
		moved += TieredChunkCols
	}
	return moved
}

// CopyWindow returns columns [lo, hi) as a ws-borrowed packed float64
// copy, cold values widened exactly. The copy is the caller's to mutate
// and holds after the guarding lock is released; PutDense it when done.
func (t *TieredCols) CopyWindow(ws *compute.Workspace, lo, hi int) *Dense {
	if lo < 0 || hi > t.n || lo > hi {
		panic(fmt.Sprintf("mat: TieredCols.CopyWindow [%d,%d) out of range for %d cols", lo, hi, t.n))
	}
	out := GetDenseRaw(ws, t.r, hi-lo)
	t.fillWindow(out, lo, hi)
	return out
}

// fillWindow copies columns [lo, hi) into out (r×(hi-lo)) chunk by chunk,
// widening cold ones.
func (t *TieredCols) fillWindow(out *Dense, lo, hi int) {
	const w = TieredChunkCols
	for j := lo; j < hi; {
		q, c0 := j/w, j%w
		n := min(w-c0, hi-j)
		if q < len(t.cold) {
			ch := t.cold[q]
			for i := 0; i < t.r; i++ {
				dst := out.Row(i)[j-lo : j-lo+n]
				for k, v := range ch.Data[i*w+c0 : i*w+c0+n] {
					dst[k] = float64(v)
				}
			}
		} else {
			ch := t.hot[q-len(t.cold)]
			for i := 0; i < t.r; i++ {
				copy(out.Row(i)[j-lo:j-lo+n], ch.Data[i*ch.C+c0:])
			}
		}
		j += n
	}
}

// GatherCols copies the given global columns (ascending not required)
// into a ws-borrowed r×len(idxs) matrix, one column at a time.
func (t *TieredCols) GatherCols(ws *compute.Workspace, idxs []int) *Dense {
	for _, j := range idxs {
		if j < 0 || j >= t.n {
			panic(fmt.Sprintf("mat: TieredCols.GatherCols index %d out of range for %d cols", j, t.n))
		}
	}
	const w = TieredChunkCols
	out := GetDenseRaw(ws, t.r, len(idxs))
	m := len(idxs)
	for k, j := range idxs {
		q, c := j/w, j%w
		if q < len(t.cold) {
			src := t.cold[q].Data
			for i := 0; i < t.r; i++ {
				out.Data[i*m+k] = float64(src[i*w+c])
			}
			continue
		}
		h := t.hot[q-len(t.cold)]
		for i := 0; i < t.r; i++ {
			out.Data[i*m+k] = h.Data[i*h.C+c]
		}
	}
	return out
}

// AddRows appends new sensor rows carrying the full column history: each
// chunk is reallocated with the extra rows, cold chunks gaining theirs
// narrowed to float32 — so the new rows take on exactly the fidelity of
// the tier they land in.
func (t *TieredCols) AddRows(rows *Dense) {
	if rows.C != t.n {
		panic(fmt.Sprintf("mat: TieredCols.AddRows needs %d columns, got %d", t.n, rows.C))
	}
	const w = TieredChunkCols
	for q, ch := range t.cold {
		g := NewDense32(t.r+rows.R, w)
		copy(g.Data, ch.Data)
		for i := 0; i < rows.R; i++ {
			dst := g.Row(t.r + i)
			for k, v := range rows.Row(i)[q*w : (q+1)*w] {
				dst[k] = float32(v)
			}
		}
		t.cold[q] = g
	}
	for k, ch := range t.hot {
		c0 := (len(t.cold) + k) * w
		n := min(ch.C, t.n-c0)
		g := NewDense(t.r+rows.R, ch.C)
		copy(g.Data, ch.Data)
		for i := 0; i < rows.R; i++ {
			copy(g.Row(t.r+i), rows.Row(i)[c0:c0+n])
		}
		t.hot[k] = g
	}
	t.r += rows.R
}

// Promote returns the full history as one freshly allocated packed
// float64 matrix (cold values widened exactly).
func (t *TieredCols) Promote() *Dense {
	out := NewDense(t.r, t.n)
	t.fillWindow(out, 0, t.n)
	return out
}

// HotBytes returns the resident bytes of the hot tier, counting every
// chunk at the capacity it holds.
func (t *TieredCols) HotBytes() int64 {
	var n int64
	for _, h := range t.hot {
		n += int64(len(h.Data)) * 8
	}
	return n
}

// ColdBytes returns the resident bytes of the cold tier.
func (t *TieredCols) ColdBytes() int64 {
	var n int64
	for _, c := range t.cold {
		n += int64(len(c.Data)) * 4
	}
	return n
}

// Narrow converts m to float32, rounding every element once.
func Narrow(m *Dense) *Dense32 {
	out := NewDense32(m.R, m.C)
	for i := 0; i < m.R; i++ {
		src, dst := m.Row(i), out.Row(i)
		for j, v := range src {
			dst[j] = float32(v)
		}
	}
	return out
}
