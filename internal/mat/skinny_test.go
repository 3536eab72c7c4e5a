package mat

import (
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// Tests for the pack-free skinny dispatch tier (skinny.go). The central
// claim is stronger than tolerance equivalence: on every tier the skinny
// kernels replay the packed path's per-element accumulation order, so
// routing a shape through either path must produce bit-identical output.
// Tests here mutate package-level dispatch state and must not use
// t.Parallel.

// skinnyShapes covers all four classifier classes plus edge-row tiles
// and KC-boundary crossings: {class, m, k, n}.
var skinnyShapes = []struct {
	name    string
	m, k, n int
}{
	{"skinnyB", 200, 64, 8},          // n ≤ NR: one B strip; also Mul of 200×64 by 64×8
	{"skinnyB_edge", 203, 64, 5},     // ragged rows and width
	{"innerprod", 48, 4096, 8},       // Uᵀ·c projection shape
	{"innerprod_kc", 32, 515, 8},     // crosses the KC chunk boundary twice
	{"outerprod", 200, 8, 48},        // rank-w update shape
	{"outerprod_edge", 197, 8, 47},   // ragged both ways
	{"smallpanel", 48, 200, 48},      // reorth's q×q collective; also Gram of 200×48 (aT)
	{"smallpanel_edge", 63, 129, 61}, // ragged small panel
	{"smallpanel_mulT", 48, 200, 64}, // MulT of 200×48 with 200×64 (aT)
	{"gram_edge", 23, 515, 23},       // Gram of 515×23 (aT): an edge row tile on the diagonal
	{"tallpanel", 4392, 20, 20},      // window product at Theta's height
	{"tallpanel_edge", 301, 48, 40},  // ragged rows, two depth-and-width panels
}

// TestSkinnyMatchesPackedBitwise runs every skinny shape through both
// the pack-free driver and the packed gemmView under every reachable
// tier and all three store modes, and requires the
// outputs to agree bit for bit. A square aᵀb also runs with upper set,
// as a Gram does, and must agree on and above the diagonal.
func TestSkinnyMatchesPackedBitwise(t *testing.T) {
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(53))
			for _, c := range skinnyShapes {
				for _, aT := range []bool{false, true} {
					ar, ac := c.m, c.k
					if aT {
						ar, ac = c.k, c.m
					}
					a := randDense(rng, ar, ac)
					b := randDense(rng, c.k, c.n)
					for mode := gemmSet; mode <= gemmSub; mode++ {
						packed := randDense(rng, c.m, c.n)
						free := packed.Clone()
						gemmView(nil, denseView(packed), denseView(a), aT, denseView(b), false, mode)
						upper := free.Clone()
						skinnyGemm(nil, denseView(free), denseView(a), aT, denseView(b), mode, false)
						for i := range packed.Data {
							if packed.Data[i] != free.Data[i] {
								t.Fatalf("f64 %s aT=%v mode=%d: element %d: packed %v vs skinny %v",
									c.name, aT, mode, i, packed.Data[i], free.Data[i])
							}
						}
						if !aT || c.m != c.n {
							continue
						}
						skinnyGemm(nil, denseView(upper), denseView(a), aT, denseView(b), mode, true)
						for i := 0; i < c.m; i++ {
							for j := i; j < c.n; j++ {
								if packed.At(i, j) != upper.At(i, j) {
									t.Fatalf("f64 %s mode=%d upper: element (%d,%d): packed %v vs skinny %v",
										c.name, mode, i, j, packed.At(i, j), upper.At(i, j))
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestSkinnyOffBitNeutral checks the skinny tier at the public entries:
// Mul of 200×64 by 64×8, MulT of 200×48 with 200×64 and the Gram of
// 200×48 take the pack-free driver wherever the classifier picks it, and
// on every tier each must equal the packed path bit for bit, so turning
// the tier off would move no result.
func TestSkinnyOffBitNeutral(t *testing.T) {
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(71))
			a := randDense(rng, 200, 64)
			b := randDense(rng, 64, 8)
			u := randDense(rng, 200, 48)
			mul := NewDense(200, 8)
			gemmView(nil, denseView(mul), denseView(a), false, denseView(b), false, gemmSet)
			mulT := NewDense(48, 64)
			gemmView(nil, denseView(mulT), denseView(u), true, denseView(a), false, gemmSet)
			gram := NewDense(48, 48)
			gemmView(nil, denseView(gram), denseView(u), true, denseView(u), false, gemmSet)
			mirrorUpperToLower(gram)
			for name, pair := range map[string][2]*Dense{
				"Mul": {Mul(a, b), mul}, "MulT": {MulT(u, a), mulT}, "Gram": {Gram(u, true), gram},
			} {
				for i := range pair[0].Data {
					if pair[0].Data[i] != pair[1].Data[i] {
						t.Fatalf("%s: element %d: skinny %v vs packed %v", name, i, pair[0].Data[i], pair[1].Data[i])
					}
				}
			}
		})
	}
}

// TestSkinnyWidthSweep exercises every masked tile width w = 1..lanes
// on every reachable tier (the opmask and mask-vector edge paths),
// checking against the naive reference.
func TestSkinnyWidthSweep(t *testing.T) {
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			_, lanes := skinnyTile()
			rng := rand.New(rand.NewSource(59))
			for w := 1; w <= lanes; w++ {
				for _, m := range []int{8, 48, 53} {
					a := randDense(rng, m, 300)
					b := randDense(rng, 300, w)
					got := NewDense(m, w)
					skinnyGemm(nil, denseView(got), denseView(a), false, denseView(b), gemmSet, false)
					want := refMul(denseView(a), false, denseView(b), false)
					assertClose(t, "f64", want, got, 1e-11)
				}
			}
		})
	}
}

// TestSkinnyParallelBitIdentical pins engine-vs-serial bit identity for
// the pack-free driver's row-tile fan-out, for each skinny class with
// enough flops to cross parallelThreshold.
func TestSkinnyParallelBitIdentical(t *testing.T) {
	eng := compute.NewEngine(7)
	defer eng.Close()
	rng := rand.New(rand.NewSource(61))
	for _, c := range []struct{ m, k, n int }{
		{48, 99999, 8}, // inner-product, m not tile-aligned across 7 lanes
		{2000, 9, 48},  // outer-product, many tiles
		{2003, 300, 5}, // skinny-B with a ragged final tile
	} {
		a := randDense(rng, c.m, c.k)
		b := randDense(rng, c.k, c.n)
		serial := NewDense(c.m, c.n)
		skinnyGemm(nil, denseView(serial), denseView(a), false, denseView(b), gemmSet, false)
		parallel := NewDense(c.m, c.n)
		skinnyGemm(eng, denseView(parallel), denseView(a), false, denseView(b), gemmSet, false)
		for i := range serial.Data {
			if serial.Data[i] != parallel.Data[i] {
				t.Fatalf("%dx%dx%d: element %d differs bitwise", c.m, c.k, c.n, i)
			}
		}
	}
}

// TestSkinnyStridedOperands feeds the driver column views (stride >
// width) on both sides, as the streaming pipeline does, and checks the
// result against the same multiply on tightly packed clones.
func TestSkinnyStridedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	parentA := randDense(rng, 48, 500)
	parentB := randDense(rng, 300, 24)
	av := ColsView(parentA, 100, 400) // 48×300 at stride 500
	bv := ColsView(parentB, 3, 11)    // 300×8 at stride 24
	want := MulWith(nil, nil, CloneWith(nil, av), CloneWith(nil, bv))
	got := MulWith(nil, nil, av, bv)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("element %d: packed-operand %v vs view-operand %v", i, want.Data[i], got.Data[i])
		}
	}
}

// TestSkinnyRoutingBoundary pins the classifier against the active
// blocking: the hot-path shapes must take the pack-free tier and bulk
// shapes must not.
func TestSkinnyRoutingBoundary(t *testing.T) {
	p := bp64
	// Wide enough to clear both the n ≤ NR and the 64-column small-panel
	// predicates, so each case isolates the predicate it names.
	big := 4 * p.nr
	if big <= 64 {
		big = 80
	}
	cases := []struct {
		name    string
		m, k, n int
		want    bool
	}{
		{"n at NR", 200, 200, p.nr, true},
		{"n past NR", 200, 200, p.nr + 1, false},
		{"m below MR", p.mr - 1, 10000, big, true},
		{"m at MR", p.mr, 10000, big, false},
		{"k at NR", 300, p.nr, big, true},
		{"k past NR", 300, p.nr + 1, big, false},
		{"small panel", 64, 10000, 64, true},
		{"panel too wide", 64, 10000, 65, false},
		{"panel too tall", 65, 10000, 65, false},
		{"tall panel", 4392, 20, 20, true},
		{"tall panel at its bounds", 4392, 64, 40, true},
		{"tall panel too deep", 4392, 65, 40, false},
		{"tall panel too wide", 4392, 64, 41, false},
		{"tall 64-wide panel", 4392, 64, 64, false},
		{"short 64-wide panel", 200, 64, 64, false},
	}
	for _, c := range cases {
		if got := skinnyShape(c.m, c.k, c.n); got != c.want {
			t.Errorf("%s: skinnyShape(%d,%d,%d) = %v, want %v", c.name, c.m, c.k, c.n, got, c.want)
		}
	}
}

// TestMulAccIntoMatchesReference checks the accumulate-mode entry points
// (MulAddIntoWith / MulSubIntoWith) against Mul plus an explicit
// elementwise pass, across shapes that route through the packed tier
// and the skinny tier, tiny ones included — including a strided
// column-view destination, which is how the mrDMD residual flip calls
// them.
func TestMulAccIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	shapes := []struct{ m, k, n int }{
		{3, 4, 5},     // tiny: one skinny edge tile
		{200, 64, 8},  // skinny-B class
		{48, 4096, 8}, // inner-product class
		{96, 96, 96},  // packed blocked path
	}
	for _, c := range shapes {
		a := randDense(rng, c.m, c.k)
		b := randDense(rng, c.k, c.n)
		prod := Mul(a, b)
		for _, sub := range []bool{false, true} {
			// Plain destination.
			dst := randDense(rng, c.m, c.n)
			want := dst.Clone()
			if sub {
				MulSubIntoWith(nil, dst, a, b)
			} else {
				MulAddIntoWith(nil, dst, a, b)
			}
			for i := range want.Data {
				if sub {
					want.Data[i] -= prod.Data[i]
				} else {
					want.Data[i] += prod.Data[i]
				}
			}
			for i := range want.Data {
				if math.Abs(want.Data[i]-dst.Data[i]) > 1e-12 {
					t.Fatalf("%dx%dx%d sub=%v: element %d: got %v want %v",
						c.m, c.k, c.n, sub, i, dst.Data[i], want.Data[i])
				}
			}
			// Column-view destination inside a wider matrix.
			wide := randDense(rng, c.m, c.n+7)
			wantWide := wide.Clone()
			view := ColsView(wide, 3, 3+c.n)
			if sub {
				MulSubIntoWith(nil, view, a, b)
			} else {
				MulAddIntoWith(nil, view, a, b)
			}
			for i := 0; i < c.m; i++ {
				wrow := wantWide.Row(i)[3 : 3+c.n]
				prow := prod.Row(i)
				for j := range wrow {
					if sub {
						wrow[j] -= prow[j]
					} else {
						wrow[j] += prow[j]
					}
				}
			}
			for i := range wantWide.Data {
				if math.Abs(wantWide.Data[i]-wide.Data[i]) > 1e-12 {
					t.Fatalf("%dx%dx%d sub=%v view: element %d: got %v want %v",
						c.m, c.k, c.n, sub, i, wide.Data[i], wantWide.Data[i])
				}
			}
		}
	}
}
