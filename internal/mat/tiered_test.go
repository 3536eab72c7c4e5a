package mat

import (
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// refTiered mirrors a TieredCols as a plain f64 matrix plus the expected
// per-column fidelity: columns < coldCols should read back as
// float64(float32(x)) exactly, hot columns as x exactly.
func tieredRef(t *testing.T, tc *TieredCols, full *Dense) {
	t.Helper()
	if tc.Rows() != full.R || tc.Cols() != full.C {
		t.Fatalf("shape: tiered %dx%d vs ref %dx%d", tc.Rows(), tc.Cols(), full.R, full.C)
	}
	cc := tc.ColdCols()
	for i := 0; i < full.R; i++ {
		for j := 0; j < full.C; j++ {
			want := full.At(i, j)
			if j < cc {
				// The cold tier stores exactly one f32 rounding of the
				// original value — not an approximation with a tolerance.
				want = float64(float32(want))
			}
			if got := tc.At(i, j); got != want {
				t.Fatalf("At(%d,%d) = %v, want %v (coldCols=%d)", i, j, got, want, cc)
			}
		}
	}
}

func TestTieredGrowDemoteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const p = 7
	full := randDense(rng, p, 0)
	tc := NewTieredCols(p)

	for step := 0; step < 12; step++ {
		b := randDense(rng, p, 97)
		full = HStack(full, b)
		mustGrow(t, tc, b)
		if step%3 == 2 {
			horizon := 150
			before := tc.Cols() - tc.ColdCols()
			moved := tc.Demote(horizon)
			if moved%TieredChunkCols != 0 {
				t.Fatalf("demoted %d cols, not a chunk multiple", moved)
			}
			hot := tc.Cols() - tc.ColdCols()
			if hot != before-moved {
				t.Fatalf("hot width %d after demote, want %d", hot, before-moved)
			}
			if hot < horizon && moved > 0 {
				t.Fatalf("demote ate into the horizon: hot=%d < %d", hot, horizon)
			}
		}
		tieredRef(t, tc, full)
	}
	if tc.ColdCols() == 0 {
		t.Fatal("test never exercised the cold tier")
	}

	// Promote widens cold values exactly: float64(float32(x)), and the
	// round-trip error is bounded by half-ULP relative error of f32.
	pm := tc.Promote()
	for i := 0; i < p; i++ {
		for j := 0; j < full.C; j++ {
			orig := full.At(i, j)
			got := pm.At(i, j)
			if j < tc.ColdCols() {
				if got != float64(float32(orig)) {
					t.Fatalf("promote (%d,%d): %v != float64(float32(%v))", i, j, got, orig)
				}
				if rel := math.Abs(got-orig) / math.Abs(orig); rel > 1.0/(1<<24) {
					t.Fatalf("promote (%d,%d): rel err %g exceeds f32 half-ULP bound", i, j, rel)
				}
			} else if got != orig {
				t.Fatalf("promote hot (%d,%d): %v != %v", i, j, got, orig)
			}
		}
	}
}

func TestTieredWindowAndGather(t *testing.T) {
	ws := compute.NewWorkspace()
	rng := rand.New(rand.NewSource(11))
	const p, total = 5, 700
	full := randDense(rng, p, total)
	tc := NewTieredCols(p)
	mustGrow(t, tc, full)
	tc.Demote(100) // 2 chunks cold (512), 188 hot

	if tc.ColdCols() != 2*TieredChunkCols {
		t.Fatalf("coldCols = %d, want %d", tc.ColdCols(), 2*TieredChunkCols)
	}

	spans := [][2]int{{0, total}, {0, 100}, {200, 300}, {500, 700}, {512, 700}, {600, 600}}
	for _, sp := range spans {
		lo, hi := sp[0], sp[1]
		cw := tc.CopyWindow(ws, lo, hi)
		if cw.R != p || cw.C != hi-lo {
			t.Fatalf("window [%d,%d) wrong shape", lo, hi)
		}
		for i := 0; i < p; i++ {
			for j := lo; j < hi; j++ {
				if got, want := cw.At(i, j-lo), tc.At(i, j); got != want {
					t.Fatalf("CopyWindow(%d,%d) at (%d,%d): %v != %v", lo, hi, i, j, got, want)
				}
			}
		}
		PutDense(ws, cw)
	}

	idxs := []int{0, 3, 255, 256, 511, 512, 513, 699}
	g := tc.GatherCols(ws, idxs)
	for i := 0; i < p; i++ {
		for k, j := range idxs {
			if got, want := g.At(i, k), tc.At(i, j); got != want {
				t.Fatalf("gather (%d, idx %d): %v != %v", i, j, got, want)
			}
		}
	}
	PutDense(ws, g)

	hotIdxs := []int{515, 600, 699}
	hg := tc.GatherCols(ws, hotIdxs)
	for i := 0; i < p; i++ {
		for k, j := range hotIdxs {
			if got, want := hg.At(i, k), full.At(i, j); got != want {
				t.Fatalf("hot gather (%d, idx %d): %v != %v", i, j, got, want)
			}
		}
	}
	PutDense(ws, hg)
}

// TestTieredDemoteKeepsHotChunks: Demote narrows whole chunks off the
// front of the hot tier and moves no hot column it keeps — the surviving
// chunks are the very same allocations — and growth afterwards writes
// only the new columns into the open tail.
func TestTieredDemoteKeepsHotChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const p, total = 6, 650
	full := randDense(rng, p, total)
	tc := NewTieredCols(p)
	mustGrow(t, tc, full)
	before := append([]*Dense(nil), tc.HotChunks()...)
	if moved := tc.Demote(100); moved != 2*TieredChunkCols {
		t.Fatalf("demoted %d cols, want %d", moved, 2*TieredChunkCols)
	}
	after := tc.HotChunks()
	if len(after) != len(before)-2 {
		t.Fatalf("%d hot chunks after demoting 2 of %d", len(after), len(before))
	}
	for k, h := range after {
		if h != before[k+2] {
			t.Fatalf("hot chunk %d was reallocated by Demote", k)
		}
	}
	tieredRef(t, tc, full)

	b := randDense(rng, p, 30)
	mustGrow(t, tc, b)
	if got := tc.HotChunks(); len(got) != 1 || got[0] != before[2] {
		t.Fatal("growth within the open tail replaced it")
	}
	tieredRef(t, tc, HStack(full, b))
}

func TestTieredAddRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const p, total, extra = 4, 600, 3
	full := randDense(rng, p, total)
	tc := NewTieredCols(p)
	mustGrow(t, tc, full)
	tc.Demote(64) // 2 chunks cold

	newRows := randDense(rng, extra, total)
	tc.AddRows(newRows)
	if tc.Rows() != p+extra {
		t.Fatalf("rows = %d, want %d", tc.Rows(), p+extra)
	}
	grown := VStack(full, newRows)
	tieredRef(t, tc, grown)

	// Growth after AddRows keeps both tiers consistent.
	b := randDense(rng, p+extra, 40)
	mustGrow(t, tc, b)
	tieredRef(t, tc, HStack(grown, b))
}

func TestTieredFromPartsValidation(t *testing.T) {
	const w = TieredChunkCols
	cold := func(r, c int) []*Dense32 { return []*Dense32{NewDense32(r, w), NewDense32(r, c)} }
	hot := []*Dense{NewDense(3, w), NewDense(3, 10)}
	tc, err := TieredFromParts(cold(3, w), hot, 3, w+10)
	if err != nil || tc.Cols() != 3*w+10 || tc.ColdCols() != 2*w {
		t.Fatalf("valid parts rejected: %v (tc=%+v)", err, tc)
	}
	if tc.HotBytes() != 3*(w+10)*8 {
		t.Fatalf("HotBytes = %d, want the %d bytes the segments hold", tc.HotBytes(), 3*(w+10)*8)
	}
	bad := []struct {
		name string
		cold []*Dense32
		hot  []*Dense
		rows int
		cols int
	}{
		{"row-mismatched cold chunk", []*Dense32{NewDense32(2, w)}, hot, 3, w + 10},
		{"width-mismatched cold chunk", cold(3, w-1), hot, 3, w + 10},
		{"row-mismatched hot segment", nil, []*Dense{NewDense(2, 10)}, 3, 10},
		{"narrow hot segment before the tail", nil, []*Dense{NewDense(3, 10), NewDense(3, w)}, 3, w + 10},
		{"hot segment wider than a chunk", nil, []*Dense{NewDense(3, w+1)}, 3, w + 1},
		{"empty hot segment", nil, []*Dense{NewDense(3, 0)}, 3, 0},
		{"segments short of the columns", nil, hot, 3, w + 11},
		{"columns without rows", nil, nil, 0, 5},
		{"strided hot segment", nil, []*Dense{ColsView(NewDense(3, w), 0, 10)}, 3, 10},
	}
	for _, c := range bad {
		if _, err := TieredFromParts(c.cold, c.hot, c.rows, c.cols); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestNarrowWiden(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randDense(rng, 6, 9)
	n := Narrow(m)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			if got, want := float64(n.Row(i)[j]), float64(float32(m.At(i, j))); got != want {
				t.Fatalf("narrow/widen (%d,%d): %v != %v", i, j, got, want)
			}
		}
	}
}

// TestTieredBytes: both tiers count exactly the chunks they hold — the
// hot tier every chunk at its full P×TieredChunkCols capacity, however
// little of the open tail is filled.
func TestTieredBytes(t *testing.T) {
	const w = TieredChunkCols
	tc := NewTieredCols(8)
	mustGrow(t, tc, NewDense(8, 600))
	if got, want := tc.HotBytes(), int64(3*8*w*8); got != want {
		t.Fatalf("HotBytes = %d before demote, want %d (3 chunks)", got, want)
	}
	tc.Demote(0) // both full chunks demote, 88 hot remain
	if tc.ColdCols() != 2*w {
		t.Fatalf("coldCols = %d, want %d", tc.ColdCols(), 2*w)
	}
	if got, want := tc.ColdBytes(), int64(8*2*w*4); got != want {
		t.Fatalf("ColdBytes = %d, want %d", got, want)
	}
	if got, want := tc.HotBytes(), int64(8*w*8); got != want {
		t.Fatalf("HotBytes = %d, want %d (1 chunk)", got, want)
	}
}

func mustGrow(t *testing.T, tc *TieredCols, b *Dense) {
	t.Helper()
	if !tc.Grow(b) {
		t.Fatal("finite batch rejected")
	}
}

// TestTieredGrowRejectsNonFinite: a batch carrying one NaN or ±Inf —
// here in the column that lands just past a chunk boundary, so Grow has
// opened a chunk for it — is rejected whole: Cols(), HotBytes() and
// every stored value stay as they were, and the opened chunk is gone.
func TestTieredGrowRejectsNonFinite(t *testing.T) {
	const p = 4
	rng := rand.New(rand.NewSource(29))
	full := randDense(rng, p, TieredChunkCols-6)
	tc := NewTieredCols(p)
	mustGrow(t, tc, full)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, col := range []int{0, 5, 6, 19} {
			b := randDense(rng, p, 20)
			b.Set(rng.Intn(p), col, bad)
			cols, hotBytes, chunks := tc.Cols(), tc.HotBytes(), len(tc.HotChunks())
			if tc.Grow(b) {
				t.Fatalf("batch with %v at column %d accepted", bad, col)
			}
			if tc.Cols() != cols || tc.HotBytes() != hotBytes || len(tc.HotChunks()) != chunks {
				t.Fatalf("rejected batch changed the store: cols %d→%d, hot bytes %d→%d, chunks %d→%d",
					cols, tc.Cols(), hotBytes, tc.HotBytes(), chunks, len(tc.HotChunks()))
			}
			tieredRef(t, tc, full)
		}
	}
	b := randDense(rng, p, 20)
	mustGrow(t, tc, b)
	tieredRef(t, tc, HStack(full, b))
}

// TestTieredModelChecked runs a seeded random sequence of operations —
// Grow (Δ from 1 to 300, some crossing chunk boundaries, some rejected
// for a NaN), Demote at several horizons, AddRows, and a rebuild from
// decoded-style parts with a narrow tail — and after each one compares
// every read (At, Window, CopyWindow, GatherCols, Promote) against a
// plain reference matrix: hot columns bit-equal, cold ones exactly
// float64(float32(x)). HotBytes must equal the chunks held exactly:
// P·TieredChunkCols·8 each, a narrow restored tail counting its width.
func TestTieredModelChecked(t *testing.T) {
	const w = TieredChunkCols
	ws := compute.NewWorkspace()
	rng := rand.New(rand.NewSource(23))
	p := 3
	ref := NewDense(p, 0)
	tc := NewTieredCols(p)
	narrow := 0 // width of a restored tail not yet widened, or 0
	crossings, demoted, rejected, rebuilt := 0, 0, 0, 0
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(12); {
		case op < 5: // grow
			b := randDense(rng, p, 1+rng.Intn(300))
			before := tc.Cols()
			mustGrow(t, tc, b)
			if before/w != (tc.Cols()-1)/w {
				crossings++
			}
			ref = HStack(ref, b)
			narrow = 0
		case op == 5: // grow a batch holding one NaN
			b := randDense(rng, p, 1+rng.Intn(300))
			b.Set(rng.Intn(p), rng.Intn(b.C), math.NaN())
			if tc.Grow(b) {
				t.Fatal("NaN batch accepted")
			}
			rejected++
		case op <= 7: // demote
			h := []int{0, 1, 100, 255, 256, 300, 700}[rng.Intn(7)]
			kept := append([]*Dense(nil), tc.HotChunks()...)
			moved := tc.Demote(h)
			if moved%w != 0 {
				t.Fatalf("demoted %d columns, not whole chunks", moved)
			}
			if hot := tc.Cols() - tc.ColdCols(); hot >= max(h, 0)+w {
				t.Fatalf("horizon %d left %d hot columns", h, hot)
			}
			for k, c := range tc.HotChunks() {
				if c != kept[k+moved/w] {
					t.Fatalf("Demote(%d) moved surviving hot chunk %d", h, k)
				}
			}
			demoted += moved
		case op == 8: // add a sensor row
			if p == 6 {
				continue
			}
			rows := randDense(rng, 1, tc.Cols())
			tc.AddRows(rows)
			ref = VStack(ref, rows)
			p++
		case op == 9: // rebuild from parts the way a snapshot decode does
			hc := tc.Cols() - tc.ColdCols()
			var segs []*Dense
			for k, h := range tc.HotChunks() {
				s := NewDense(p, min(w, hc-k*w))
				for i := 0; i < p; i++ {
					copy(s.Row(i), h.Data[i*h.C:])
				}
				segs = append(segs, s)
			}
			next, err := TieredFromParts(tc.ColdChunks(), segs, p, hc)
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			tc, narrow = next, hc%w
			rebuilt++
		default: // reads only
		}

		tieredRef(t, tc, ref)
		if pm := tc.Promote(); !tieredEqual(tc, ref, pm, 0, ref.C) {
			t.Fatalf("step %d: Promote disagrees with the reference", step)
		}
		if n := tc.Cols(); n > 0 {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(min(n-lo, 2*w)+1)
			cw := tc.CopyWindow(ws, lo, hi)
			if !tieredEqual(tc, ref, cw, lo, hi) {
				t.Fatalf("step %d: window [%d,%d) disagrees with the reference", step, lo, hi)
			}
			PutDense(ws, cw)
			idxs := make([]int, 1+rng.Intn(8))
			for k := range idxs {
				idxs[k] = rng.Intn(n)
			}
			g := tc.GatherCols(ws, idxs)
			for i := 0; i < p; i++ {
				for k, j := range idxs {
					if got, want := g.At(i, k), tieredWant(tc, ref, i, j); got != want {
						t.Fatalf("step %d: gather (%d, col %d) = %v, want %v", step, i, j, got, want)
					}
				}
			}
			PutDense(ws, g)
		}
		chunks := (tc.Cols() - tc.ColdCols() + w - 1) / w
		want := int64(p) * int64(chunks*w) * 8
		if narrow > 0 {
			want -= int64(p) * int64(w-narrow) * 8
		}
		if got := tc.HotBytes(); got != want || len(tc.HotChunks()) != chunks {
			t.Fatalf("step %d: HotBytes %d in %d chunks, want %d in %d", step, got, len(tc.HotChunks()), want, chunks)
		}
	}
	if crossings < 20 || demoted == 0 || rejected == 0 || rebuilt == 0 || p < 4 {
		t.Fatalf("sequence too tame: %d crossings, %d demoted, %d rejected, %d rebuilt, %d rows",
			crossings, demoted, rejected, rebuilt, p)
	}
}

// tieredWant is the value a store must return for reference element
// (i, j): exact when hot, one f32 rounding when cold.
func tieredWant(tc *TieredCols, ref *Dense, i, j int) float64 {
	if j < tc.ColdCols() {
		return float64(float32(ref.At(i, j)))
	}
	return ref.At(i, j)
}

// tieredEqual reports whether m holds reference columns [lo, hi).
func tieredEqual(tc *TieredCols, ref, m *Dense, lo, hi int) bool {
	if m.R != ref.R || m.C != hi-lo {
		return false
	}
	for i := 0; i < m.R; i++ {
		for j := lo; j < hi; j++ {
			if m.At(i, j-lo) != tieredWant(tc, ref, i, j) {
				return false
			}
		}
	}
	return true
}
