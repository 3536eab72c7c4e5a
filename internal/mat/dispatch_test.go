package mat

import (
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/compute"
)

// Tier-dispatch tests: every micro-kernel tier the host hardware supports
// is forced in turn and run through the same correctness and determinism
// suites, so CI exercises all reachable (tier, tile shape) pairs in one
// pass instead of relying on heterogeneous runners. Tests here mutate the
// package-level kernel configuration and must not use t.Parallel.

// forceTier points the dispatch globals at the given tier (with its
// derived blocking) for the duration of one test.
func forceTier(t *testing.T, tier kernelTier) {
	t.Helper()
	oldTier, old64 := gemmTier, bp64
	gemmTier = tier
	bp64 = deriveParams(tier, kernelCaches, gemmTuned, compute.Default().Workers())
	t.Cleanup(func() { gemmTier, bp64 = oldTier, old64 })
}

// hostTiers lists every tier the hardware can run, lowest first.
func hostTiers() []kernelTier {
	tiers := []kernelTier{tierGeneric}
	det := detectKernelTier()
	if det >= tierAVX2 {
		tiers = append(tiers, tierAVX2)
	}
	if det >= tierAVX512 {
		tiers = append(tiers, tierAVX512)
	}
	return tiers
}

// TestDispatchTierSweep checks every reachable tier against the naive
// reference over shapes that hit interior tiles and
// both edge kinds (mr and nr remainders) at every tile geometry.
func TestDispatchTierSweep(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{64, 64, 64},  // all-interior for every geometry
		{7, 30, 13},   // rows < mr and cols < nr everywhere
		{9, 17, 17},   // single ragged row/col beyond one 8×16 tile
		{23, 40, 31},  // mr<8 and nr<16 remainders on the 512-bit tiles
		{65, 300, 33}, // crosses KC and one MC boundary with ragged edges
		{16, 256, 16}, // exact 8-row, 16-col multiples (no edges at 8×16)
		{12, 100, 24}, // edge rows on 8-row tiles, interior on 4-row ones
	}
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			rng := rand.New(rand.NewSource(29))
			for _, c := range shapes {
				a := randDense(rng, c.m, c.k)
				b := randDense(rng, c.k, c.n)
				got := NewDense(c.m, c.n)
				gemmView(nil, denseView(got), denseView(a), false, denseView(b), false, gemmSet)
				want := refMul(denseView(a), false, denseView(b), false)
				assertClose(t, "f64", want, got, 1e-11)
			}
		})
	}
}

// TestDispatchParallelBitIdentical requires serial-vs-engine bit identity
// separately under every reachable tier: the fan-out band math depends on
// the tier's mr, so each geometry gets its own boundary coverage.
func TestDispatchParallelBitIdentical(t *testing.T) {
	for _, tier := range hostTiers() {
		t.Run(tier.String(), func(t *testing.T) {
			forceTier(t, tier)
			eng := compute.NewEngine(7)
			defer eng.Close()
			rng := rand.New(rand.NewSource(31))
			for _, c := range []struct{ m, k, n int }{
				{257, 180, 131},
				{96, 800, 64},  // shorter than one MC panel: sub-panel bands
				{17, 99999, 9}, // m barely ≥ 2·mr at the 8-row geometry
				{9, 99999, 9},  // m ≥ 2·mr only at the 4-row geometry
			} {
				a := randDense(rng, c.m, c.k)
				b := randDense(rng, c.k, c.n)
				serial := NewDense(c.m, c.n)
				gemmView(nil, denseView(serial), denseView(a), false, denseView(b), false, gemmSet)
				parallel := NewDense(c.m, c.n)
				gemmView(eng, denseView(parallel), denseView(a), false, denseView(b), false, gemmSet)
				for i := range serial.Data {
					if serial.Data[i] != parallel.Data[i] {
						t.Fatalf("%dx%dx%d: element %d differs bitwise", c.m, c.k, c.n, i)
					}
				}
			}
		})
	}
}

// TestDispatchAVX512MatchesAVX2Bitwise pins the strongest available
// correctness statement for the 512-bit kernels: at equal KC both asm
// tiers accumulate every output element over the identical p-order FMA
// chain, so their outputs must agree bit for bit — any lane-permutation
// or offset bug in the 8-wide kernels shows up as a last-bit diff here
// long before a tolerance test would notice.
func TestDispatchAVX512MatchesAVX2Bitwise(t *testing.T) {
	if detectKernelTier() < tierAVX512 {
		t.Skip("host lacks AVX-512")
	}
	pin := func(t *testing.T, tier kernelTier) {
		t.Helper()
		oldTier, old64 := gemmTier, bp64
		gemmTier = tier
		// Pinned (untuned) blocking gives both tiers KC=256.
		bp64 = deriveParams(tier, cacheInfo{}, false, 1)
		t.Cleanup(func() { gemmTier, bp64 = oldTier, old64 })
	}
	rng := rand.New(rand.NewSource(37))
	for _, c := range []struct{ m, k, n int }{
		{100, 300, 50},
		{37, 513, 29}, // ragged everything, crosses the KC boundary
		{8, 256, 16},
	} {
		a := randDense(rng, c.m, c.k)
		b := randDense(rng, c.k, c.n)

		run := func(t *testing.T, tier kernelTier) *Dense {
			pin(t, tier)
			out := NewDense(c.m, c.n)
			gemmView(nil, denseView(out), denseView(a), false, denseView(b), false, gemmSet)
			return out
		}
		wide := run(t, tierAVX512)
		narrow := run(t, tierAVX2)
		for i := range wide.Data {
			if wide.Data[i] != narrow.Data[i] {
				t.Fatalf("f64 %dx%dx%d: element %d: avx512 %v vs avx2 %v",
					c.m, c.k, c.n, i, wide.Data[i], narrow.Data[i])
			}
		}
	}
}

// TestWideKernelsAgree cross-checks the dispatched 8-wide kernels against
// their portable references on identical packed strips, including odd kc
// (the asm tail path) and all three store modes.
func TestWideKernelsAgree(t *testing.T) {
	if detectKernelTier() >= tierAVX512 {
		forceTier(t, tierAVX512)
	}
	rng := rand.New(rand.NewSource(41))
	for _, kc := range []int{1, 2, 7, 64, 255, 256} {
		ap := make([]float64, 8*kc)
		bp := make([]float64, 16*kc)
		for i := range ap {
			ap[i] = rng.NormFloat64()
		}
		for i := range bp {
			bp[i] = rng.NormFloat64()
		}
		for mode := gemmSet; mode <= gemmSub; mode++ {
			want := make([]float64, 128)
			got := make([]float64, 128)
			for i := range want {
				v := rng.NormFloat64()
				want[i] = v
				got[i] = v
			}
			gemmKernel8x16dGo(want, 16, ap, bp, kc, mode)
			gemmKernel8x16d(got, 16, ap, bp, kc, mode)
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-11*(1+math.Abs(want[i])) {
					t.Fatalf("8x16d kc=%d mode=%d: element %d: %v vs %v", kc, mode, i, got[i], want[i])
				}
			}
		}
	}
}

// TestInterleave4MatchesGo pins the asm pack interleave against the
// portable loop over ragged lengths and every tile-height stride the pack
// layer uses (plus an oversized one). On hosts
// without the asm path this degenerates to Go-vs-Go and still validates
// the wrapper's tail splicing.
func TestInterleave4MatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, dstStride := range []int{4, 8, 16, 5} {
		for _, n := range []int{1, 3, 4, 7, 8, 12, 100, 257} {
			srcStride := n + rng.Intn(5)
			src := make([]float64, 3*srcStride+n)
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			want := make([]float64, (n-1)*dstStride+4)
			got := make([]float64, len(want))
			interleave4Go(want, dstStride, src, srcStride, n)
			interleave4(got, dstStride, src, srcStride, n)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("f64 stride=%d n=%d: element %d: %v vs %v", dstStride, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestResolveTier pins the IMRDMD_GEMM_KERNEL capping semantics: the env
// can lower the dispatch tier but never raise it above the hardware.
func TestResolveTier(t *testing.T) {
	cases := []struct {
		detected kernelTier
		env      string
		want     kernelTier
	}{
		{tierAVX512, "", tierAVX512},
		{tierAVX512, "auto", tierAVX512},
		{tierAVX512, "avx512", tierAVX512},
		{tierAVX512, "avx2", tierAVX2},
		{tierAVX512, "generic", tierGeneric},
		{tierAVX512, "off", tierGeneric},
		{tierAVX2, "avx512", tierAVX2}, // cannot raise above hardware
		{tierAVX2, "avx2", tierAVX2},
		{tierAVX2, "generic", tierGeneric},
		{tierGeneric, "avx2", tierGeneric},
		{tierGeneric, "avx512", tierGeneric},
		{tierAVX512, " AVX2 ", tierAVX2}, // trimmed, case-insensitive
		{tierAVX512, "bogus", tierAVX512},
	}
	for _, c := range cases {
		if got := resolveTier(c.detected, c.env); got != c.want {
			t.Errorf("resolveTier(%v, %q) = %v, want %v", c.detected, c.env, got, c.want)
		}
	}
}

// TestDeriveParams pins the blocking invariants: tile geometry follows the
// tier, untuned runs keep the historical constants, KC is only rederived
// on the AVX-512 tier (the numeric contract), and every derived value is
// a clamped multiple of its tile dimension.
func TestDeriveParams(t *testing.T) {
	caches := cacheInfo{l1d: 48 << 10, l2: 2 << 20, l3: 105 << 20}
	for _, tier := range []kernelTier{tierGeneric, tierAVX2, tierAVX512} {
		pinned := deriveParams(tier, caches, false, 1)
		if pinned.kc != 256 || pinned.mc != 128 || pinned.nc != 512 {
			t.Errorf("%v untuned: got %+v, want 256/128/512 blocking", tier, pinned)
		}
		wantMR, wantNR := 4, 4
		if tier == tierAVX512 {
			wantMR, wantNR = 8, 16
		}
		if pinned.mr != wantMR || pinned.nr != wantNR {
			t.Errorf("%v: got tile %dx%d, want %dx%d", tier, pinned.mr, pinned.nr, wantMR, wantNR)
		}

		tuned := deriveParams(tier, caches, true, 1)
		if tier != tierAVX512 && tuned.kc != 256 {
			t.Errorf("%v tuned: kc=%d, but KC is pinned at 256 below the AVX-512 tier", tier, tuned.kc)
		}
		if tuned.kc%8 != 0 || tuned.kc < 128 || tuned.kc > 1024 {
			t.Errorf("%v: kc=%d out of range", tier, tuned.kc)
		}
		if tuned.mc%tuned.mr != 0 || tuned.mc < 4*tuned.mr || tuned.mc > 512 {
			t.Errorf("%v: mc=%d not a clamped multiple of mr=%d", tier, tuned.mc, tuned.mr)
		}
		if tuned.nc%tuned.nr != 0 || tuned.nc < 4*tuned.nr || tuned.nc > 1024 {
			t.Errorf("%v: nc=%d not a clamped multiple of nr=%d", tier, tuned.nc, tuned.nr)
		}
	}
	// Unknown caches substitute conservative defaults rather than zeros.
	p := deriveParams(tierAVX512, cacheInfo{}, true, 1)
	if p.kc < 128 || p.mc < 4*p.mr || p.nc < 4*p.nr {
		t.Errorf("zero caches: derived %+v below the clamp floors", p)
	}
}

// TestDeriveParamsNCPerWorker pins NC against the engine fan-out width:
// NC is sized from this worker's *share* of the L3, so widening the
// engine must shrink (never grow) NC, the un-parallel case must match
// the historical full-cache derivation, and KC/MC — per-core L1/L2
// quantities — must not move with the worker count at all.
func TestDeriveParamsNCPerWorker(t *testing.T) {
	caches := cacheInfo{l1d: 48 << 10, l2: 2 << 20, l3: 105 << 20}
	cases := []struct {
		workers int
		wantNC  int
	}{
		// l3/workers/8/(kc*8) rounded down to a multiple of nr=16,
		// clamped to [64, 1024]. KC derives from L1d/2/(16*8) = 192.
		{1, 1024}, // 105MiB/8/1536 = 8960 → clamp ceiling
		{4, 1024}, // 2240 → still above the ceiling
		{16, 560},
		{32, 272},
		{0, 1024}, // degenerate worker counts behave as 1
		{-3, 1024},
	}
	for _, c := range cases {
		p := deriveParams(tierAVX512, caches, true, c.workers)
		if p.nc != c.wantNC {
			t.Errorf("workers=%d: nc=%d, want %d", c.workers, p.nc, c.wantNC)
		}
		base := deriveParams(tierAVX512, caches, true, 1)
		if p.kc != base.kc || p.mc != base.mc {
			t.Errorf("workers=%d: kc/mc %d/%d moved with worker count (want %d/%d)",
				c.workers, p.kc, p.mc, base.kc, base.mc)
		}
		if p.nc > base.nc {
			t.Errorf("workers=%d: nc=%d exceeds single-worker nc=%d", c.workers, p.nc, base.nc)
		}
	}
}

// TestKernelInfo checks the public snapshot against the live globals.
func TestKernelInfo(t *testing.T) {
	info := Kernel()
	if info.Tier != gemmTier.String() {
		t.Errorf("Tier = %q, want %q", info.Tier, gemmTier.String())
	}
	if info.Tuned != gemmTuned {
		t.Errorf("Tuned = %v, want %v", info.Tuned, gemmTuned)
	}
	if info.F64 != (KernelParams{bp64.mr, bp64.nr, bp64.kc, bp64.mc, bp64.nc}) {
		t.Errorf("F64 = %+v, want %+v", info.F64, bp64)
	}
}
