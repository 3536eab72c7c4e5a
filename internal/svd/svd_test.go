package svd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"imrdmd/internal/mat"
)

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// lowRank builds an r×c matrix of known rank k with singular values sv.
func lowRank(rng *rand.Rand, r, c, k int, sv []float64) *mat.Dense {
	u := mat.QRFactor(randDense(rng, r, k)).Q
	v := mat.QRFactor(randDense(rng, c, k)).Q
	us := u.Clone()
	for i := 0; i < us.R; i++ {
		row := us.Row(i)
		for j := range row {
			row[j] *= sv[j]
		}
	}
	return mat.Mul(us, v.T())
}

func checkSVD(t *testing.T, a *mat.Dense, r *Result, tol float64) {
	t.Helper()
	// U orthonormal columns.
	utu := mat.Mul(r.U.T(), r.U)
	if d := mat.Sub(utu, mat.Eye(r.Rank())).FrobNorm(); d > tol {
		t.Fatalf("UᵀU deviates from I by %g", d)
	}
	// V orthonormal columns.
	vtv := mat.Mul(r.V.T(), r.V)
	if d := mat.Sub(vtv, mat.Eye(r.Rank())).FrobNorm(); d > tol {
		t.Fatalf("VᵀV deviates from I by %g", d)
	}
	// Reconstruction.
	if d := mat.Sub(r.Reconstruct(), a).FrobNorm(); d > tol*(1+a.FrobNorm()) {
		t.Fatalf("reconstruction deviates by %g", d)
	}
	// Descending singular values, nonnegative.
	for i := 1; i < len(r.S); i++ {
		if r.S[i] > r.S[i-1] {
			t.Fatalf("singular values not descending: %v", r.S)
		}
	}
	if len(r.S) > 0 && r.S[len(r.S)-1] < 0 {
		t.Fatalf("negative singular value: %v", r.S)
	}
}

func TestJacobiSVDTallAndWide(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tall := randDense(rng, 20, 6)
	checkSVD(t, tall, jacobiSVD(tall), 1e-9)
	wide := randDense(rng, 6, 20)
	checkSVD(t, wide, jacobiSVD(wide), 1e-9)
}

func TestJacobiSVDKnownSingularValues(t *testing.T) {
	// diag(3, 2, 1) embedded in a rotation-free matrix.
	a := mat.DiagOf([]float64{3, 1, 2})
	r := jacobiSVD(a)
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(r.S[i]-w) > 1e-12 {
			t.Fatalf("singular values %v want %v", r.S, want)
		}
	}
}

func TestSnapshotSVDMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{40, 15}, {15, 40}} {
		a := randDense(rng, dims[0], dims[1])
		j := jacobiSVD(a)
		s := snapshotSVD(nil, nil, a, false)
		if len(j.S) != len(s.S) {
			t.Fatalf("rank mismatch %d vs %d", len(j.S), len(s.S))
		}
		for i := range j.S {
			if math.Abs(j.S[i]-s.S[i]) > 1e-6*(1+j.S[0]) {
				t.Fatalf("σ[%d]: jacobi %v snapshot %v", i, j.S[i], s.S[i])
			}
		}
		checkSVD(t, a, s, 1e-6)
	}
}

func TestComputeDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	old := SetJacobiCutoff(4)
	defer SetJacobiCutoff(old)
	// min dim 10 > 4 → snapshots path; still correct.
	a := randDense(rng, 30, 10)
	checkSVD(t, a, Compute(a), 1e-6)
	// min dim 3 ≤ 4 → Jacobi path.
	b := randDense(rng, 30, 3)
	checkSVD(t, b, Compute(b), 1e-9)
}

func TestComputeEmpty(t *testing.T) {
	r := Compute(mat.NewDense(0, 0))
	if r.Rank() != 0 {
		t.Fatal("empty matrix should have empty SVD")
	}
}

func TestRankDeficientDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := lowRank(rng, 30, 20, 3, []float64{5, 2, 1})
	r := Compute(a)
	if r.Rank() != 3 {
		t.Fatalf("rank = %d want 3 (S=%v)", r.Rank(), r.S)
	}
	want := []float64{5, 2, 1}
	for i, w := range want {
		if math.Abs(r.S[i]-w) > 1e-6 {
			t.Fatalf("S = %v want %v", r.S, want)
		}
	}
}

func TestZeroMatrix(t *testing.T) {
	a := mat.NewDense(5, 4)
	r := Compute(a)
	if r.Rank() < 1 || r.S[0] != 0 {
		t.Fatalf("zero matrix SVD: rank %d S %v", r.Rank(), r.S)
	}
	if r.U.HasNaN() || r.V.HasNaN() {
		t.Fatal("zero matrix SVD produced NaNs")
	}
}

func TestSVDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(25)
		n := 2 + rng.Intn(25)
		a := randDense(rng, m, n)
		r := Compute(a)
		// Frobenius norm preserved by singular values.
		var s2 float64
		for _, s := range r.S {
			s2 += s * s
		}
		if math.Abs(math.Sqrt(s2)-a.FrobNorm()) > 1e-6*(1+a.FrobNorm()) {
			return false
		}
		return mat.Sub(r.Reconstruct(), a).FrobNorm() < 1e-6*(1+a.FrobNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 10, 8)
	r := Compute(a)
	tr := r.Truncate(3)
	if tr.Rank() != 3 || tr.U.C != 3 || tr.V.C != 3 {
		t.Fatalf("Truncate(3) rank = %d", tr.Rank())
	}
	// Truncating beyond rank is a clamp.
	tr2 := r.Truncate(100)
	if tr2.Rank() != r.Rank() {
		t.Fatal("Truncate beyond rank should clamp")
	}
	// Eckart–Young: rank-3 truncation error equals sqrt(sum of dropped σ²).
	var want float64
	for _, s := range r.S[3:] {
		want += s * s
	}
	got := mat.Sub(tr.Reconstruct(), a).FrobNorm()
	if math.Abs(got-math.Sqrt(want)) > 1e-8*(1+got) {
		t.Fatalf("truncation error %g want %g", got, math.Sqrt(want))
	}
}

func TestSVHTRankKeepsSignalDropsNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n := 200, 100
	// Strong rank-2 signal plus small noise.
	a := lowRank(rng, m, n, 2, []float64{500, 300})
	for i := range a.Data {
		a.Data[i] += 0.1 * rng.NormFloat64()
	}
	r := Compute(a)
	k := SVHTRank(r.S, m, n)
	if k < 2 || k > 6 {
		t.Fatalf("SVHT rank = %d, want to keep ≈2 signal directions", k)
	}
}

func TestSVHTRankAtLeastOne(t *testing.T) {
	if k := SVHTRank([]float64{1e-30}, 10, 10); k != 1 {
		t.Fatalf("SVHT must keep at least one direction, got %d", k)
	}
	if k := SVHTRank(nil, 10, 10); k != 0 {
		t.Fatalf("empty spectrum should give 0, got %d", k)
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := 40
	full := randDense(rng, m, 60)
	inc := NewIncremental(full.ColSlice(0, 20), 0)
	for j := 20; j < 60; j += 8 {
		hi := j + 8
		if hi > 60 {
			hi = 60
		}
		inc.Update(full.ColSlice(j, hi))
	}
	batch := Compute(full)
	if inc.Cols() != 60 {
		t.Fatalf("Cols = %d want 60", inc.Cols())
	}
	// Same leading singular values.
	for i := 0; i < 10; i++ {
		if math.Abs(inc.S[i]-batch.S[i]) > 1e-6*(1+batch.S[0]) {
			t.Fatalf("σ[%d]: incremental %v batch %v", i, inc.S[i], batch.S[i])
		}
	}
	// Same reconstruction.
	d := mat.Sub(inc.Result().Reconstruct(), full).FrobNorm()
	if d > 1e-6*(1+full.FrobNorm()) {
		t.Fatalf("incremental reconstruction deviates by %g", d)
	}
}

func TestIncrementalTruncatedTracksDominantSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := 50
	// Rank-3 signal, so a rank-5 truncated incremental SVD is exact.
	full := lowRank(rng, m, 80, 3, []float64{10, 5, 2})
	inc := NewIncremental(full.ColSlice(0, 10), 5)
	for j := 10; j < 80; j += 10 {
		inc.Update(full.ColSlice(j, j+10))
	}
	d := mat.Sub(inc.Result().Reconstruct(), full).FrobNorm()
	if d > 1e-5*(1+full.FrobNorm()) {
		t.Fatalf("truncated incremental SVD deviates by %g on low-rank data", d)
	}
	if inc.Rank() > 5 {
		t.Fatalf("rank cap violated: %d", inc.Rank())
	}
}

func TestIncrementalUOrthonormalAfterManyUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := 30
	inc := NewIncremental(randDense(rng, m, 5), 10)
	for k := 0; k < 40; k++ {
		inc.Update(randDense(rng, m, 3))
	}
	utu := mat.Mul(inc.U.T(), inc.U)
	if d := mat.Sub(utu, mat.Eye(inc.Rank())).FrobNorm(); d > 1e-8 {
		t.Fatalf("U drifted from orthonormality by %g after 40 updates", d)
	}
}

func TestIncrementalEmptyUpdateNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inc := NewIncremental(randDense(rng, 10, 4), 0)
	before := inc.Cols()
	inc.Update(mat.NewDense(10, 0))
	if inc.Cols() != before {
		t.Fatal("empty update changed state")
	}
}

func TestIncrementalRowMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inc := NewIncremental(randDense(rng, 10, 4), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row mismatch")
		}
	}()
	inc.Update(mat.NewDense(11, 2))
}

func BenchmarkComputeSnapshot500x100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 500, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(a)
	}
}

func BenchmarkIncrementalUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inc := NewIncremental(randDense(rng, 500, 50), 30)
	blk := randDense(rng, 500, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.Update(blk)
	}
}
