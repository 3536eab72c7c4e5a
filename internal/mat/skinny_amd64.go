//go:build amd64

package mat

// amd64 dispatch for the pack-free skinny kernels. The asm twins mirror
// the packed micro-kernels' per-element FMA chains exactly (ascending p,
// one contraction per step), so routing a shape through the skinny tier
// never changes its bits — see the contract note atop skinny.go. Tile
// widths below one vector are handled with opmask (AVX-512) or
// mask-vector (AVX2) loads and stores rather than padding, which is what
// makes the tier pack-free: no operand or output is ever staged.
//
// The asm kernels require a full-height tile (8 rows on AVX-512, 4 on
// AVX2); the driver pads edge tiles through a zeroed A scratch before
// calling. Anything else falls to the portable twin.

// skinnyKern8dAVX512 accumulates an 8-row × w-column (w ≤ 8) float64
// tile over kc depth steps, reading A at a[r·aOff + p·aStep] and B rows
// at b[p·ldb : p·ldb+w], then combines into c per mode.
//
//go:noescape
func skinnyKern8dAVX512(c []float64, ldc int, a []float64, aOff, aStep int, b []float64, ldb, w, kc, mode int)

// skinnyKern4dFMA is the AVX2+FMA float64 kernel: 4 rows × w ≤ 4.
//
//go:noescape
func skinnyKern4dFMA(c []float64, ldc int, a []float64, aOff, aStep int, b []float64, ldb, w, kc, mode int)

// skinnyKernel runs one register tile: the asm kernel of the active tier
// for full-height tiles, the portable twin otherwise. c must expose
// (rows−1)·ldc+w elements, a the addressing span
// (rows−1)·aOff+(kc−1)·aStep+1, b (kc−1)·ldb+w.
func skinnyKernel(c []float64, ldc int, a []float64, aOff, aStep int, b []float64, ldb, rows, w, kc, mode int) {
	switch {
	case gemmTier == tierAVX512 && rows == 8:
		skinnyKern8dAVX512(c, ldc, a, aOff, aStep, b, ldb, w, kc, mode)
	case gemmTier == tierAVX2 && rows == 4:
		skinnyKern4dFMA(c, ldc, a, aOff, aStep, b, ldb, w, kc, mode)
	default:
		skinnyKernGo(c, ldc, a, aOff, aStep, b, ldb, rows, w, kc, mode)
	}
}
