//go:build amd64

#include "textflag.h"

// func interleave4F64(dst []float64, dstStride int, src []float64, srcStride, n int)
//
// Interleaves four float64 rows into packed columns: dst[p*dstStride+r] =
// src[r*srcStride+p]. Processes four columns per iteration with a 4×4
// in-register transpose: one 256-bit load per row, VUNPCKL/HPD pairs,
// VPERM2F128 to assemble whole columns, four column stores. n must be a
// multiple of 4 (the Go wrapper peels the tail).
TEXT ·interleave4F64(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dstStride+24(FP), DX
	MOVQ src_base+32(FP), SI
	MOVQ srcStride+56(FP), R9
	MOVQ n+64(FP), CX

	SHLQ $3, DX         // dst stride in bytes
	SHLQ $3, R9         // src stride in bytes
	MOVQ SI, R10        // row 0
	LEAQ (SI)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ DX, R14
	SHLQ $2, R14        // dst advance per 4-column block

	SHRQ $2, CX         // column blocks
	JZ   done

block:
	VMOVUPD (R10), Y0   // r0[p..p+3]
	VMOVUPD (R11), Y1
	VMOVUPD (R12), Y2
	VMOVUPD (R13), Y3

	VUNPCKLPD Y1, Y0, Y4    // [r0p0 r1p0 r0p2 r1p2]
	VUNPCKHPD Y1, Y0, Y5    // [r0p1 r1p1 r0p3 r1p3]
	VUNPCKLPD Y3, Y2, Y6    // [r2p0 r3p0 r2p2 r3p2]
	VUNPCKHPD Y3, Y2, Y7    // [r2p1 r3p1 r2p3 r3p3]

	VPERM2F128 $0x20, Y6, Y4, Y8   // column p+0
	VPERM2F128 $0x20, Y7, Y5, Y9   // column p+1
	VPERM2F128 $0x31, Y6, Y4, Y10  // column p+2
	VPERM2F128 $0x31, Y7, Y5, Y11  // column p+3

	VMOVUPD Y8, (DI)
	VMOVUPD Y9, (DI)(DX*1)
	LEAQ    (DI)(DX*2), R8
	VMOVUPD Y10, (R8)
	VMOVUPD Y11, (R8)(DX*1)

	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ R14, DI
	DECQ CX
	JNZ  block

done:
	VZEROUPPER
	RET
