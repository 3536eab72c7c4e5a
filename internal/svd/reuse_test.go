package svd

import (
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// reconError returns ‖X − U diag(S) Vᵀ‖_F / ‖X‖_F.
func reconError(x *mat.Dense, r *Result) float64 {
	diff := mat.Sub(x, r.Reconstruct())
	return diff.FrobNorm() / (1 + x.FrobNorm())
}

// TestIncrementalBufferReuseUnderRepeatedUpdates drives a long stream of
// column updates through one Incremental and checks that (a) the
// workspace pool is actually being hit once warm, and (b) accuracy does
// not degrade versus a from-scratch SVD of the accumulated matrix. Run
// with -race this also shakes out any buffer recycled while still
// referenced.
func TestIncrementalBufferReuseUnderRepeatedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, k, rounds := 60, 5, 24
	first := randDense(rng, m, 12)
	eng := compute.NewEngine(4)
	defer eng.Close()
	inc := NewIncrementalWith(eng, nil, first, 0)
	all := first.Clone()
	for i := 0; i < rounds; i++ {
		blk := randDense(rng, m, k)
		inc.Update(blk)
		all = mat.HStack(all, blk)
	}
	if inc.Cols() != all.C {
		t.Fatalf("cols = %d, want %d", inc.Cols(), all.C)
	}
	if err := reconError(all, inc.Result()); err > 1e-8 {
		t.Fatalf("incremental reconstruction error %.3e too large", err)
	}
	gets, hits := inc.WorkspaceStats()
	if gets == 0 {
		t.Fatal("updates did not touch the workspace pool")
	}
	ratio := float64(hits) / float64(gets)
	if ratio < 0.5 {
		t.Fatalf("workspace hit rate %.2f (%d/%d) — buffers are not being reused", ratio, hits, gets)
	}
}

// TestAddRowsBufferReuseUnderRepeatedUpdates does the same for the
// row-extension path: interleave row additions, verify against a
// from-scratch decomposition, and require pool hits.
func TestAddRowsBufferReuseUnderRepeatedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, tcols, k, rounds := 24, 50, 3, 12
	first := randDense(rng, m, tcols)
	inc := NewIncrementalWith(nil, nil, first, 0)
	all := first.Clone()
	for i := 0; i < rounds; i++ {
		rows := randDense(rng, k, tcols)
		inc.AddRows(rows)
		all = mat.VStack(all, rows)
	}
	if inc.Rows() != all.R {
		t.Fatalf("rows = %d, want %d", inc.Rows(), all.R)
	}
	if err := reconError(all, inc.Result()); err > 1e-8 {
		t.Fatalf("row-update reconstruction error %.3e too large", err)
	}
	gets, hits := inc.WorkspaceStats()
	if gets == 0 || float64(hits)/float64(gets) < 0.5 {
		t.Fatalf("workspace hit rate %d/%d — AddRows is not reusing buffers", hits, gets)
	}
}

// TestIncrementalMixedUpdatesMatchBatch mixes column and row updates and
// compares singular values against a batch SVD.
func TestIncrementalMixedUpdatesMatchBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	first := randDense(rng, 30, 20)
	inc := NewIncrementalWith(compute.Shared(2), nil, first, 0)
	all := first.Clone()
	for i := 0; i < 6; i++ {
		cols := randDense(rng, all.R, 4)
		inc.Update(cols)
		all = mat.HStack(all, cols)
		rows := randDense(rng, 2, all.C)
		inc.AddRows(rows)
		all = mat.VStack(all, rows)
	}
	batch := Compute(all)
	got := inc.Result()
	if len(got.S) < 10 {
		t.Fatalf("suspiciously low rank %d", len(got.S))
	}
	for i := 0; i < 10; i++ {
		if math.Abs(got.S[i]-batch.S[i]) > 1e-6*(1+batch.S[0]) {
			t.Fatalf("σ[%d]: incremental %v batch %v", i, got.S[i], batch.S[i])
		}
	}
}

// TestSVHTRankWithPoolsScratch pins the satellite fix: the SVHT decision's
// median scratch comes from the workspace pool (warm calls are
// allocation-free) and the pooled path decides identically to the
// allocating one.
func TestSVHTRankWithPoolsScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := make([]float64, 40)
	for i := range s {
		s[i] = math.Abs(rng.NormFloat64()) * float64(len(s)-i)
	}
	// Descending spectrum, as every caller provides.
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			s[i] = s[i-1]
		}
	}
	ws := compute.NewWorkspace()
	want := SVHTRank(s, 200, 41)
	if got := SVHTRankWith(ws, s, 200, 41); got != want {
		t.Fatalf("pooled SVHT rank %d, allocating path %d", got, want)
	}
	gets0, hits0 := ws.Stats()
	if gets0 == 0 {
		t.Fatal("SVHTRankWith did not draw scratch from the workspace")
	}
	for i := 0; i < 8; i++ {
		if got := SVHTRankWith(ws, s, 200, 41); got != want {
			t.Fatalf("warm call %d: rank %d, want %d", i, got, want)
		}
	}
	gets, hits := ws.Stats()
	if hits-hits0 != gets-gets0 {
		t.Fatalf("warm SVHT calls missed the pool: %d gets, %d hits", gets-gets0, hits-hits0)
	}
}

// TestComputePooledViewBitIdentical: the window DMD hands the SVD a
// zero-copy column view and takes pooled factors. Neither may change a
// bit: for the QR-preconditioned, transposed and method-of-snapshots
// routes, ComputePooledWith on a strided view must equal ComputeWith on
// a packed copy exactly.
func TestComputePooledViewBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := compute.NewWorkspace()
	for _, sh := range [][2]int{{200, 20}, {12, 40}, {300, 120}} {
		m, n := sh[0], sh[1]
		parent := randDense(rng, m, n+7)
		view := mat.ColsView(parent, 3, 3+n)
		owned := ComputeWith(nil, nil, view.Clone())
		for round := 0; round < 2; round++ { // the second round reuses pooled storage
			pooled := ComputePooledWith(nil, ws, view)
			if len(pooled.S) != len(owned.S) {
				t.Fatalf("%d×%d: rank %d vs %d", m, n, len(pooled.S), len(owned.S))
			}
			for i := range owned.S {
				if pooled.S[i] != owned.S[i] {
					t.Fatalf("%d×%d: σ%d differs", m, n, i)
				}
			}
			for _, f := range [][2]*mat.Dense{{pooled.U, owned.U}, {pooled.V, owned.V}} {
				for i := 0; i < f[1].R; i++ {
					for j := 0; j < f[1].C; j++ {
						if f[0].At(i, j) != f[1].At(i, j) {
							t.Fatalf("%d×%d: factor element (%d,%d) differs", m, n, i, j)
						}
					}
				}
			}
			pooled.Release(ws)
		}
	}
}
