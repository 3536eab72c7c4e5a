//go:build amd64

package mat

// On amd64 the four-row interleave — the hot inner loop of packA (plain
// orientation) and packB (transposed orientation), ~15% of GEMM time at
// 512³ when run as scalar Go — is an AVX shuffle kernel: load one vector
// from each of the four rows, transpose the 4×4 register block via
// VUNPCKL/HPD + VPERM2F128 and store whole packed columns. The asm
// handles the vector-aligned prefix; the ragged column tail falls through
// to the Go loop shifted past it. The generic tier keeps everything in Go
// so the forced-fallback CI leg exercises the portable path end to end.

// interleave4F64 interleaves four float64 rows: dst[p·dstStride+r] =
// src[r·srcStride+p] for r < 4, p < n. n must be a multiple of 4;
// len(src) must cover element 3·srcStride + n - 1 and len(dst) element
// (n-1)·dstStride + 3. Requires AVX (gated on the AVX2 kernel tier).
//
//go:noescape
func interleave4F64(dst []float64, dstStride int, src []float64, srcStride, n int)

func interleave4(dst []float64, dstStride int, src []float64, srcStride, n int) {
	if gemmTier == tierGeneric {
		interleave4Go(dst, dstStride, src, srcStride, n)
		return
	}
	nb := n &^ 3
	if nb > 0 {
		interleave4F64(dst, dstStride, src, srcStride, nb)
	}
	if nb < n {
		interleave4Go(dst[nb*dstStride:], dstStride, src[nb:], srcStride, n-nb)
	}
}
