//go:build amd64

package mat

// amd64 kernel dispatch and feature detection. Two assembly tiers exist
// above the portable kernels:
//
//	AVX2+FMA (gemm_amd64.s): 4×4 tiles in YMM accumulators — one 256-bit
//	B load, MR broadcasts and MR fused multiply-adds per k step.
//	AVX-512 (same file): 8×16 tiles held in ZMM accumulators — each row
//	is two 512-bit vectors, so each A broadcast feeds a pair of FMAs,
//	halving load-port pressure per flop.
//
// Detection runs once at package init via CPUID/XGETBV: the AVX-512 tier
// additionally requires the OS to save ZMM/opmask state (XCR0) and the
// AVX512F+DQ leaves, so OS contexts that disable ZMM fall back to AVX2
// cleanly. IMRDMD_GEMM_KERNEL can cap the tier (tune.go).
//
// The FMA kernels contract each a·b+c without intermediate rounding, so
// packed products differ from the naive loops in the last bits — all
// equivalence tests against the naive reference are tolerance-based,
// while serial-vs-parallel equivalence stays exact because both run the
// same kernel in the same per-element order. Both asm tiers run the same
// KC, so they also agree bit for bit with each other: both accumulate
// every output element over the identical p-order FMA chain
// (dispatch_test.go pins this on AVX-512 hosts).

// cpuHasAVX2FMA reports AVX2+FMA support with OS-enabled YMM state.
func cpuHasAVX2FMA() bool

// cpuHasAVX512 reports AVX-512F+DQ support with OS-enabled ZMM, opmask
// and Hi16_ZMM state.
func cpuHasAVX512() bool

// detectKernelTier reports the widest micro-kernel tier the host can run.
func detectKernelTier() kernelTier {
	switch {
	case cpuHasAVX512():
		return tierAVX512
	case cpuHasAVX2FMA():
		return tierAVX2
	default:
		return tierGeneric
	}
}

// gemmKernel4x4FMA is the AVX2+FMA micro-kernel. c must expose at least
// 3·ldc+4 elements, ap and bp at least 4·kc.
//
//go:noescape
func gemmKernel4x4FMA(c []float64, ldc int, ap, bp []float64, kc, mode int)

// gemmKernel8x16dAVX512 is the AVX-512 float64 micro-kernel. c must
// expose at least 7·ldc+16 elements, ap at least 8·kc and bp at least
// 16·kc.
//
//go:noescape
func gemmKernel8x16dAVX512(c []float64, ldc int, ap, bp []float64, kc, mode int)

func gemmKernel4x4(c []float64, ldc int, ap, bp []float64, kc, mode int) {
	if gemmTier >= tierAVX2 {
		gemmKernel4x4FMA(c, ldc, ap, bp, kc, mode)
		return
	}
	gemmKernel4x4Go(c, ldc, ap, bp, kc, mode)
}

func gemmKernel8x16d(c []float64, ldc int, ap, bp []float64, kc, mode int) {
	if gemmTier >= tierAVX512 {
		gemmKernel8x16dAVX512(c, ldc, ap, bp, kc, mode)
		return
	}
	gemmKernel8x16dGo(c, ldc, ap, bp, kc, mode)
}
