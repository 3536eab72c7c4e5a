//go:build !amd64

package mat

// Non-amd64 builds interleave with the portable bounds-check-free loop.
func interleave4(dst []float64, dstStride int, src []float64, srcStride, n int) {
	interleave4Go(dst, dstStride, src, srcStride, n)
}
