//go:build !amd64

package mat

// Non-amd64 builds run the portable skinny kernel at every tile shape
// (the tier is always generic there; see gemm_generic.go).

func skinnyKernel(c []float64, ldc int, a []float64, aOff, aStep int, b []float64, ldb, rows, w, kc, mode int) {
	skinnyKernGo(c, ldc, a, aOff, aStep, b, ldb, rows, w, kc, mode)
}
