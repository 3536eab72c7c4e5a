package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"imrdmd/internal/compute"
)

// refMul is the retained naive reference: a plain triple loop over the
// logical (possibly transposed) operands, accumulating in a fresh output.
// Every packed-GEMM property test checks against it.
func refMul(a view, aT bool, b view, bT bool) *Dense {
	ar, ac := a.r, a.c
	if aT {
		ar, ac = ac, ar
	}
	bc := b.c
	if bT {
		bc = b.r
	}
	at := func(i, p int) float64 {
		if aT {
			return a.data[p*a.stride+i]
		}
		return a.data[i*a.stride+p]
	}
	bt := func(p, j int) float64 {
		if bT {
			return b.data[j*b.stride+p]
		}
		return b.data[p*b.stride+j]
	}
	out := NewDense(ar, bc)
	for i := 0; i < ar; i++ {
		for p := 0; p < ac; p++ {
			aip := at(i, p)
			for j := 0; j < bc; j++ {
				out.Data[i*bc+j] += aip * bt(p, j)
			}
		}
	}
	return out
}

func assertClose(t *testing.T, op string, want, got *Dense, tol float64) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("%s: shape %dx%d want %dx%d", op, got.R, got.C, want.R, want.C)
	}
	scale := 1 + want.MaxAbs()
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > tol*scale {
			t.Fatalf("%s: element %d differs: %v vs %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// TestGemmRandomShapes drives the packed kernel directly (bypassing the
// shape classifier that would route small shapes to the pack-free tier) over
// randomized shapes — odd sizes, 1×N, N×1, empty and remainder rows/cols
// in every combination of transposes — against the naive reference.
// go test -race runs this too, covering the pack-buffer pool.
func TestGemmRandomShapes(t *testing.T) {
	dims := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 33}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := dims[rng.Intn(len(dims))]
		k := dims[rng.Intn(len(dims))]
		n := dims[rng.Intn(len(dims))]
		aT := rng.Intn(2) == 1
		bT := rng.Intn(2) == 1
		var a, b *Dense
		if aT {
			a = randDense(rng, k, m)
		} else {
			a = randDense(rng, m, k)
		}
		if bT {
			b = randDense(rng, n, k)
		} else {
			b = randDense(rng, k, n)
		}
		want := refMul(denseView(a), aT, denseView(b), bT)
		got := NewDense(m, n)
		// Dirty output: gemmSet must fully overwrite.
		for i := range got.Data {
			got.Data[i] = math.Inf(1)
		}
		gemmView(nil, denseView(got), denseView(a), aT, denseView(b), bT, gemmSet)
		for i := range want.Data {
			if math.Abs(want.Data[i]-got.Data[i]) > 1e-12*(1+want.MaxAbs()) {
				t.Logf("seed %d m=%d k=%d n=%d aT=%v bT=%v: element %d %v vs %v",
					seed, m, k, n, aT, bT, i, got.Data[i], want.Data[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestGemmAccumulateModes checks the += and −= kernel modes behind
// MulAddIntoWith and MulSubIntoWith, on strided views into a larger matrix.
func TestGemmAccumulateModes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	host := randDense(rng, 40, 50) // views below are strided windows into this
	a := randDense(rng, 13, 40)
	b := randDense(rng, 40, 50)

	dstRows := denseView(RowsView(host, 3, 16)) // 13×50, stride 50
	before := host.Clone()
	prod := refMul(denseView(a), false, denseView(b), false) // 13×50

	gemmView(nil, dstRows, denseView(a), false, denseView(b), false, gemmAdd)
	for i := 0; i < 13; i++ {
		for j := 0; j < 50; j++ {
			want := before.At(3+i, j) + prod.At(i, j)
			if math.Abs(host.At(3+i, j)-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("gemmAdd: (%d,%d) = %v want %v", i, j, host.At(3+i, j), want)
			}
		}
	}
	gemmView(nil, dstRows, denseView(a), false, denseView(b), false, gemmSub)
	for i := 0; i < 13; i++ {
		for j := 0; j < 50; j++ {
			want := before.At(3+i, j)
			if math.Abs(host.At(3+i, j)-want) > 1e-11*(1+math.Abs(want)) {
				t.Fatalf("gemmSub did not undo gemmAdd at (%d,%d): %v want %v", i, j, host.At(3+i, j), want)
			}
		}
	}
}

// TestGemmLargeAgainstNaive compares the routed Mul/MulT/Gram entry points
// (packed or pack-free by shape) against the naive reference on shapes
// exercising remainder tiles in both dimensions.
func TestGemmLargeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := []struct{ m, k, n int }{
		{129, 257, 131}, // remainders in every blocking dimension
		{128, 256, 128}, // exact multiples of every blocking constant
		{1, 300, 200},   // single output row
		{300, 1, 200},   // k=1: every tile is one rank-1 step
		{200, 300, 1},   // single output column
		{97, 513, 64},   // kc remainder across two depth panels
	}
	for _, c := range cases {
		a := randDense(rng, c.m, c.k)
		b := randDense(rng, c.k, c.n)
		want := refMul(denseView(a), false, denseView(b), false)
		assertClose(t, "Mul", want, Mul(a, b), 1e-12)

		at := randDense(rng, c.k, c.m) // MulT: atᵀ·b
		wantT := refMul(denseView(at), true, denseView(b), false)
		assertClose(t, "MulT", wantT, MulT(at, b), 1e-12)
	}

	g := randDense(rng, 123, 77)
	wantGC := refMul(denseView(g), true, denseView(g), false)
	assertClose(t, "Gram cols", wantGC, Gram(g, true), 1e-12)
	wantGR := refMul(denseView(g), false, denseView(g), true)
	assertClose(t, "Gram rows", wantGR, Gram(g, false), 1e-12)
}

// TestGemmParallelBitIdentical pins the panel-aligned fan-out contract:
// the packed path must produce bit-identical output on a multi-lane
// engine and serially, including at sizes with ragged final panels.
func TestGemmParallelBitIdentical(t *testing.T) {
	eng := compute.NewEngine(7)
	defer eng.Close()
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ m, k, n int }{
		{257, 180, 131}, // 3 ragged MC panels
		{512, 512, 96},
		{130, 700, 40},
		{96, 800, 64},  // shorter than one MC panel: sub-panel row bands
		{9, 99999, 9},  // minimal band width (above threshold, m barely ≥ 2·mr)
		{17, 99999, 9}, // barely ≥ 2·mr for the 8-row AVX-512 tile
	} {
		a := randDense(rng, c.m, c.k)
		b := randDense(rng, c.k, c.n)
		serial := NewDense(c.m, c.n)
		gemmView(nil, denseView(serial), denseView(a), false, denseView(b), false, gemmSet)
		parallel := NewDense(c.m, c.n)
		gemmView(eng, denseView(parallel), denseView(a), false, denseView(b), false, gemmSet)
		for i := range serial.Data {
			if serial.Data[i] != parallel.Data[i] {
				t.Fatalf("%dx%dx%d: element %d differs bitwise: %v vs %v",
					c.m, c.k, c.n, i, serial.Data[i], parallel.Data[i])
			}
		}
	}
}

// TestGemmKernelsAgree cross-checks the architecture-specific micro-kernel
// against the portable Go one on identical packed strips. The FMA kernel
// contracts multiply-adds, so agreement is tolerance-based.
func TestGemmKernelsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kc := range []int{1, 2, 7, 64, 255, 256} {
		ap := make([]float64, 4*kc)
		bp := make([]float64, 4*kc)
		for i := range ap {
			ap[i] = rng.NormFloat64()
			bp[i] = rng.NormFloat64()
		}
		for mode := gemmSet; mode <= gemmSub; mode++ {
			want := make([]float64, 16)
			got := make([]float64, 16)
			for i := range want {
				v := rng.NormFloat64()
				want[i] = v
				got[i] = v
			}
			gemmKernel4x4Go(want, 4, ap, bp, kc, mode)
			gemmKernel4x4(got, 4, ap, bp, kc, mode)
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-11*(1+math.Abs(want[i])) {
					t.Fatalf("kc=%d mode=%d: element %d: %v vs %v", kc, mode, i, got[i], want[i])
				}
			}
		}
	}
}
