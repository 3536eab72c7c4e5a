package mat

// Pack routines: copy operand blocks into the contiguous, tile-ordered
// buffers the micro-kernels stream from. Both routines reduce to the same
// primitive — interleave R regularly-strided rows into column-major order
// (dst[p·R + r] = src[r·stride + p]) — because packing an A block strip
// of MR rows and packing a transposed-B strip of NR columns are the same
// data movement. Full strips go through interleave4 (an AVX shuffle
// kernel on amd64, a bounds-check-free Go loop elsewhere or under the
// generic tier) in groups of four rows; ragged edge strips and the
// contiguous-source cases (transposed A, plain B) use straight copies
// with zero padding.

// packA copies the mc×kc block of A at (ic, pc) into ap as strips of mr
// rows: strip s holds rows [ic+s·mr, ic+s·mr+mr) laid out p-major
// (ap[s·kc·mr + p·mr + r]), zero-padded to a full strip at the edge.
// When aT is set the logical A is aᵀ, i.e. element (i, p) reads
// a.data[p·stride+i].
func packA(ap []float64, a view, aT bool, ic, mc, pc, kc, mr int) {
	off := 0
	for s := 0; s < mc; s += mr {
		rows := min(mr, mc-s)
		switch {
		case aT:
			// The strip's rows are contiguous in the transposed source, so
			// each packed column is one copy plus tail padding.
			base := pc*a.stride + ic + s
			for p := 0; p < kc; p++ {
				dst := ap[off : off+mr : off+mr]
				copy(dst, a.data[base:base+rows])
				for r := rows; r < mr; r++ {
					dst[r] = 0
				}
				base += a.stride
				off += mr
			}
		case rows == mr:
			packInterleave(ap[off:off+mr*kc], mr, a.data[(ic+s)*a.stride+pc:], a.stride, mr, kc)
			off += mr * kc
		default:
			packInterleaveEdge(ap[off:off+mr*kc], mr, a.data[(ic+s)*a.stride+pc:], a.stride, rows, kc)
			off += mr * kc
		}
	}
}

// packB copies the kc×nc block of B at (pc, jc) into bp as strips of nr
// columns: strip s holds columns [jc+s·nr, jc+s·nr+nr) laid out p-major
// (bp[s·kc·nr + p·nr + t]), zero-padded at the edge. When bT is set the
// logical B is bᵀ, i.e. element (p, j) reads b.data[j·stride+p] — the
// strip's columns are then rows of b and packing is the same interleave
// primitive as packA's.
func packB(bp []float64, b view, bT bool, pc, kc, jc, nc, nr int) {
	off := 0
	for s := 0; s < nc; s += nr {
		w := min(nr, nc-s)
		switch {
		case bT && w == nr:
			packInterleave(bp[off:off+nr*kc], nr, b.data[(jc+s)*b.stride+pc:], b.stride, nr, kc)
			off += nr * kc
		case bT:
			packInterleaveEdge(bp[off:off+nr*kc], nr, b.data[(jc+s)*b.stride+pc:], b.stride, w, kc)
			off += nr * kc
		case w == nr:
			base := pc*b.stride + jc + s
			for p := 0; p < kc; p++ {
				copy(bp[off:off+nr:off+nr], b.data[base:base+nr])
				base += b.stride
				off += nr
			}
		default:
			base := pc*b.stride + jc + s
			for p := 0; p < kc; p++ {
				dst := bp[off : off+nr : off+nr]
				copy(dst, b.data[base:base+w])
				for t := w; t < nr; t++ {
					dst[t] = 0
				}
				base += b.stride
				off += nr
			}
		}
	}
}

// packInterleave writes dst[p·dstStride + r] = src[r·srcStride + p] for
// r < rows, p < n, in groups of four source rows. rows must be a
// multiple of 4 (every tile height is) and len(src) must cover element
// (rows-1)·srcStride + n - 1.
func packInterleave(dst []float64, dstStride int, src []float64, srcStride, rows, n int) {
	for g := 0; g < rows; g += 4 {
		interleave4(dst[g:], dstStride, src[g*srcStride:], srcStride, n)
	}
}

// interleave4Go is the portable four-row interleave: dst[p·dstStride+r] =
// src[r·srcStride+p] for r < 4, p < n. The full-length row reslices let
// the compiler drop every bounds check in the p loop; it is the
// reference the asm kernel is pinned against and the tail/fallback path.
func interleave4Go(dst []float64, dstStride int, src []float64, srcStride, n int) {
	if n == 0 {
		return
	}
	r0 := src[0:n:n]
	r1 := src[srcStride : srcStride+n : srcStride+n]
	r2 := src[2*srcStride : 2*srcStride+n : 2*srcStride+n]
	r3 := src[3*srcStride : 3*srcStride+n : 3*srcStride+n]
	o := 0
	for p := 0; p < n; p++ {
		d := dst[o : o+4 : o+4]
		d[0] = r0[p]
		d[1] = r1[p]
		d[2] = r2[p]
		d[3] = r3[p]
		o += dstStride
	}
}

// packInterleaveEdge handles a ragged strip (rows < dstStride live rows):
// live rows are interleaved with strided writes, the padding rows are
// zeroed. Only edge strips take this path, so it stays scalar.
func packInterleaveEdge(dst []float64, dstStride int, src []float64, srcStride, rows, n int) {
	for r := 0; r < rows; r++ {
		srow := src[r*srcStride : r*srcStride+n : r*srcStride+n]
		o := r
		for p := 0; p < n; p++ {
			dst[o] = srow[p]
			o += dstStride
		}
	}
	for r := rows; r < dstStride; r++ {
		o := r
		for p := 0; p < n; p++ {
			dst[o] = 0
			o += dstStride
		}
	}
}
