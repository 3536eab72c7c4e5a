package mat

import (
	"unsafe"

	"imrdmd/internal/compute"
)

// parallelThreshold is the flop count above which the multiply kernels fan
// work out to the engine's worker pool. At or below it the handoff
// overhead dominates, so a problem of exactly this size stays serial
// (threshold_test.go pins the boundary).
const parallelThreshold = 1 << 18

// fanOut reports whether a kernel with the given flop count should split
// across engine e. The comparison is strict: work fans out only strictly
// above parallelThreshold.
func fanOut(e *compute.Engine, flops int) bool {
	return flops > parallelThreshold && e.Workers() > 1
}

// Mul returns a*b on the pack-free kernels (skinny.go) or the packed
// register-blocked GEMM (gemm.go), fanned out over row panels on the
// shared compute engine when large enough. Both compute every element
// with the same accumulation chain, so the bits do not depend on which
// one a shape takes.
func Mul(a, b *Dense) *Dense {
	return MulWith(compute.Default(), nil, a, b)
}

// MulWith computes a*b on engine e, borrowing the result from ws (pass
// nil ws to allocate). The caller owns the result; if it came from a
// workspace, return it with PutDense when done.
func MulWith(e *compute.Engine, ws *compute.Workspace, a, b *Dense) *Dense {
	if a.C != b.R {
		panic("mat: Mul inner dimension mismatch")
	}
	out := GetDenseRaw(ws, a.R, b.C)
	mulView(e, denseView(out), denseView(a), false, denseView(b), gemmSet)
	return out
}

// MulInto computes dst = a*b, reusing dst's storage. dst must be a.R×b.C
// and must not alias a or b (aliasing panics).
func MulInto(dst, a, b *Dense) {
	MulIntoWith(compute.Default(), dst, a, b)
}

// MulIntoWith computes dst = a*b on engine e. dst's prior contents are
// overwritten band-by-band inside the kernel — there is no separate
// zeroing pass — so dst may come straight from a workspace. dst must not
// alias a or b.
func MulIntoWith(e *compute.Engine, dst, a, b *Dense) {
	mulIntoMode(e, dst, a, b, gemmSet)
}

// MulAddIntoWith computes dst += a*b through the same kernel routing as
// MulIntoWith: existing dst contents are kept and the product accumulates
// on top, so residual flips need no intermediate product matrix.
func MulAddIntoWith(e *compute.Engine, dst, a, b *Dense) {
	mulIntoMode(e, dst, a, b, gemmAdd)
}

// MulSubIntoWith computes dst -= a*b; see MulAddIntoWith.
func MulSubIntoWith(e *compute.Engine, dst, a, b *Dense) {
	mulIntoMode(e, dst, a, b, gemmSub)
}

// mulIntoMode checks dst's shape and aliasing, then computes dst = a*b,
// dst += a*b or dst −= a*b (mode md).
func mulIntoMode(e *compute.Engine, dst, a, b *Dense, md int) {
	if a.C != b.R {
		panic("mat: MulInto inner dimension mismatch")
	}
	if dst.R != a.R || dst.C != b.C {
		panic("mat: MulInto output shape mismatch")
	}
	if overlaps(dst.Data, a.Data) || overlaps(dst.Data, b.Data) {
		panic("mat: MulInto destination aliases an operand")
	}
	mulView(e, denseView(dst), denseView(a), false, denseView(b), md)
}

// mulView computes dst = A·B, dst += A·B or dst −= A·B (mode md), where
// A is a (or aᵀ when aT) and B is b: on the pack-free tier when
// skinnyShape takes the shape, else on the packed GEMM.
func mulView(e *compute.Engine, dst, a view, aT bool, b view, md int) {
	m, k := a.r, a.c
	if aT {
		m, k = k, m
	}
	if skinnyShape(m, k, b.c) {
		skinnyGemm(e, dst, a, aT, b, md, false)
		return
	}
	gemmView(e, dst, a, aT, b, false, md)
}

// overlaps reports whether the backing arrays of x and y share memory.
func overlaps(x, y []float64) bool {
	if len(x) == 0 || len(y) == 0 {
		return false
	}
	x0 := uintptr(unsafe.Pointer(&x[0]))
	x1 := x0 + uintptr(len(x))*unsafe.Sizeof(x[0])
	y0 := uintptr(unsafe.Pointer(&y[0]))
	y1 := y0 + uintptr(len(y))*unsafe.Sizeof(y[0])
	return x0 < y1 && y0 < x1
}

// MulT returns aᵀ*b without materializing the transpose.
func MulT(a, b *Dense) *Dense {
	return MulTWith(compute.Default(), nil, a, b)
}

// MulTWith computes aᵀ*b on engine e, borrowing the result from ws (nil
// ws allocates).
func MulTWith(e *compute.Engine, ws *compute.Workspace, a, b *Dense) *Dense {
	if a.R != b.R {
		panic("mat: MulT dimension mismatch")
	}
	out := GetDenseRaw(ws, a.C, b.C)
	mulView(e, denseView(out), denseView(a), true, denseView(b), gemmSet)
	return out
}

// MulTIntoWith computes dst = aᵀ*b on engine e, reusing dst's storage
// (prior contents are overwritten; dst may come straight from a
// workspace or alias a caller-owned payload buffer). dst must be
// a.C×b.C and must not alias a or b.
func MulTIntoWith(e *compute.Engine, dst, a, b *Dense) {
	if a.R != b.R {
		panic("mat: MulTInto dimension mismatch")
	}
	if dst.R != a.C || dst.C != b.C {
		panic("mat: MulTInto output shape mismatch")
	}
	if overlaps(dst.Data, a.Data) || overlaps(dst.Data, b.Data) {
		panic("mat: MulTInto destination aliases an operand")
	}
	mulView(e, denseView(dst), denseView(a), true, denseView(b), gemmSet)
}

// Gram returns mᵀm (C×C) if byCols, else m mᵀ (R×R). The result is
// symmetric positive semidefinite, with exact symmetry pinned by
// mirroring the upper triangle over the lower.
func Gram(m *Dense, byCols bool) *Dense {
	return GramWith(compute.Default(), nil, m, byCols)
}

// GramWith computes the Gram matrix on engine e, borrowing the result
// from ws (nil ws allocates).
func GramWith(e *compute.Engine, ws *compute.Workspace, m *Dense, byCols bool) *Dense {
	n := m.C
	if !byCols {
		n = m.R
	}
	out := GetDenseRaw(ws, n, n)
	GramIntoWith(e, out, m, byCols)
	return out
}

// GramIntoWith computes dst = mᵀm (byCols) or m mᵀ into dst, reusing
// dst's storage — for callers accumulating into a collective payload
// without an intermediate copy. dst must be square of the appropriate
// dimension and must not alias m.
func GramIntoWith(e *compute.Engine, dst *Dense, m *Dense, byCols bool) {
	n := m.C
	if !byCols {
		n = m.R
	}
	if dst.R != n || dst.C != n {
		panic("mat: GramInto output shape mismatch")
	}
	if overlaps(dst.Data, m.Data) {
		panic("mat: GramInto destination aliases the operand")
	}
	if byCols {
		gramColsInto(e, dst, m)
	} else {
		gramRowsInto(e, dst, m)
	}
}

func gramRowsInto(e *compute.Engine, out *Dense, m *Dense) {
	// m·mᵀ through the packed kernel, whose B-packing read absorbs the
	// transpose (the pack-free tier takes no transposed B). The product
	// is symmetric by construction (identical per-element accumulation
	// order for (i,j) and (j,i)), but the upper triangle is mirrored
	// anyway to pin the exact symmetry the eigensolver relies on.
	gemmView(e, denseView(out), denseView(m), false, denseView(m), true, gemmSet)
	mirrorUpperToLower(out)
}

// gramColsInto computes mᵀm on mulView's route, except that the
// pack-free tier skips the tiles wholly below the diagonal, which the
// mirror overwrites.
func gramColsInto(e *compute.Engine, out *Dense, m *Dense) {
	mv := denseView(m)
	if skinnyShape(m.C, m.R, m.C) {
		skinnyGemm(e, denseView(out), mv, true, mv, gemmSet, true)
	} else {
		gemmView(e, denseView(out), mv, true, mv, false, gemmSet)
	}
	mirrorUpperToLower(out)
}

// mirrorUpperToLower copies the strict upper triangle of the square
// matrix out onto its lower triangle, pinning exact symmetry.
func mirrorUpperToLower(out *Dense) {
	n := out.C
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			out.Data[i*n+j] = out.Data[j*n+i]
		}
	}
}
