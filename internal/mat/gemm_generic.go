//go:build !amd64

package mat

// Non-amd64 builds use the portable micro-kernels at every tile shape:
// the tier is always generic.

func detectKernelTier() kernelTier { return tierGeneric }

func gemmKernel4x4(c []float64, ldc int, ap, bp []float64, kc, mode int) {
	gemmKernel4x4Go(c, ldc, ap, bp, kc, mode)
}

func gemmKernel8x16d(c []float64, ldc int, ap, bp []float64, kc, mode int) {
	gemmKernel8x16dGo(c, ldc, ap, bp, kc, mode)
}
