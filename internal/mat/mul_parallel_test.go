package mat

import (
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// TestMulIntoAliasGuard verifies MulInto panics when dst shares storage
// with an operand instead of silently corrupting the product.
func TestMulIntoAliasGuard(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on aliased MulInto", name)
			}
		}()
		fn()
	}
	a := benchDense(8, 8, 1)
	b := benchDense(8, 8, 2)
	expectPanic("dst==a", func() { MulInto(a, a, b) })
	expectPanic("dst==b", func() { MulInto(b, a, b) })
	// Partial overlap through a shared backing slice.
	backing := make([]float64, 8*8*2)
	x := NewDenseData(8, 8, backing[:64])
	y := NewDenseData(8, 8, backing[32:96])
	expectPanic("overlap", func() { MulInto(y, x, b) })

	// Disjoint views of one backing array must NOT trip the guard.
	u := NewDenseData(8, 8, backing[:64])
	v := NewDenseData(8, 8, backing[64:128])
	MulInto(v, u, b)
}

// TestMulParallelSerialEquivalence checks that routing the kernels
// through a multi-lane engine produces bitwise-identical results to the
// serial path, for sizes below and above parallelThreshold and for odd
// row counts that split into ragged bands.
func TestMulParallelSerialEquivalence(t *testing.T) {
	eng := compute.NewEngine(5)
	defer eng.Close()
	rng := rand.New(rand.NewSource(7))
	// 13×17·17×19 is far below parallelThreshold; 129×67·67×131 and
	// 257×91·91×77 are above it with odd, non-divisible row counts.
	cases := []struct{ m, k, n int }{
		{13, 17, 19},
		{64, 64, 64},
		{129, 67, 131},
		{257, 91, 77},
		{303, 303, 303},
	}
	for _, c := range cases {
		a := randDense(rng, c.m, c.k)
		b := randDense(rng, c.k, c.n)
		bt := randDense(rng, c.m, c.n) // same row count as a, for MulT

		serial := MulWith(nil, nil, a, b)
		parallel := MulWith(eng, nil, a, b)
		assertIdentical(t, "Mul", serial, parallel)

		st := MulTWith(nil, nil, a, bt)
		pt := MulTWith(eng, nil, a, bt)
		assertIdentical(t, "MulT", st, pt)

		gs := GramWith(nil, nil, a, false)
		gp := GramWith(eng, nil, a, false)
		assertIdentical(t, "Gram", gs, gp)
	}
}

func assertIdentical(t *testing.T, op string, want, got *Dense) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("%s: shape mismatch %dx%d vs %dx%d", op, want.R, want.C, got.R, got.C)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] && !(math.IsNaN(want.Data[i]) && math.IsNaN(got.Data[i])) {
			t.Fatalf("%s: element %d differs: %v vs %v", op, i, want.Data[i], got.Data[i])
		}
	}
}

// TestMulWithWorkspaceReuse verifies the pooled-result path returns
// correct products when the destination buffer arrives dirty from the
// pool (the kernel must not depend on pre-zeroed storage).
func TestMulWithWorkspaceReuse(t *testing.T) {
	ws := compute.NewWorkspace()
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 40, 30)
	b := randDense(rng, 30, 20)
	want := Mul(a, b)
	for iter := 0; iter < 4; iter++ {
		got := MulWith(nil, ws, a, b)
		assertIdentical(t, "MulWith", want, got)
		// Poison the buffer before returning it so a zeroing bug in the
		// next round is visible.
		for i := range got.Data {
			got.Data[i] = math.Inf(1)
		}
		PutDense(ws, got)
	}
	// Same for MulT and Gram.
	wantT := MulT(a, a)
	for iter := 0; iter < 4; iter++ {
		got := MulTWith(nil, ws, a, a)
		assertIdentical(t, "MulTWith", wantT, got)
		for i := range got.Data {
			got.Data[i] = math.NaN()
		}
		PutDense(ws, got)
	}
}

// TestQRFactorWithMatchesQRFactor checks the pooled, engine-routed QR
// (QRFactorOn with a workspace) against the allocating one, including
// under buffer reuse.
func TestQRFactorWithMatchesQRFactor(t *testing.T) {
	ws := compute.NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 3; iter++ {
		a := randDense(rng, 30, 12)
		want := QRFactor(a)
		got := QRFactorOn(compute.Default(), ws, a)
		assertIdentical(t, "QR.Q", want.Q, got.Q)
		assertIdentical(t, "QR.R", want.R, got.R)
		got.Release(ws)
	}
}
