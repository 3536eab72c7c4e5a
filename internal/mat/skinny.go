package mat

import "imrdmd/internal/compute"

// Pack-free dispatch tier for small and skinny shapes. The packed GEMM
// (gemm.go) buys its throughput by copying both operands into
// tile-ordered buffers; that copy amortizes over NR column reuses of
// every packed A element. The streaming-update hot path is dominated by
// shapes where it cannot amortize:
//
//	skinny-B        n ≤ NR      one strip of B; packing A costs a full
//	                            extra pass over the big operand
//	inner-product   m, n small  Uᵀ·c projections: k is the huge
//	                k large     dimension, both outputs fit in registers
//	outer-product   k ≤ NR      rank-w updates: every A element is used
//	                m large     at most w times
//	small panel     m, n ≤ 64   reorth's q×q collectives
//
// For these the driver below reads A and B in place. One micro-kernel
// per tier serves all shapes through a unified addressing scheme:
// element A(r, p) lives at a[r·aOff + p·aStep], so a plain operand uses
// (aOff, aStep) = (lda, 1) and a transposed one (1, lda) — the transpose
// costs nothing, exactly as packing absorbed it before.
//
// Numeric contract: every output element accumulates over the identical
// per-element chain the packed path uses — ascending-p FMA (asm tiers)
// or unfused multiply-add (generic tier) within each KC chunk, chunks
// merged in ascending order with the same first-chunk-set/later-add
// scheme as gemmView. Row padding in the packed path never enters a
// valid element's chain, so the pack-free results are bit-identical to
// the packed ones on every tier (skinny_test.go pins this).

// skinnyShape reports whether an m×k by k×n multiply (B untransposed)
// that already cleared gemmMinFlops should take the pack-free tier.
// The predicates mirror the shapes above; n ≤ NR also catches every
// multiply whose packed route would pad B's single strip to NR columns.
func skinnyShape(m, k, n int) bool {
	p := bp64
	return n <= p.nr || m < p.mr || k <= p.nr || (m <= 64 && n <= 64)
}

// skinnyTile returns the register-tile geometry on the active tier: tr
// rows by one vector of lanes columns. The generic tier borrows the
// 512-bit geometry — the portable kernel handles any (rows ≤ tr,
// w ≤ lanes) directly, and wider tiles mean fewer calls.
func skinnyTile() (tr, lanes int) {
	if gemmTier == tierAVX2 {
		return 4, 4
	}
	return 8, 8
}

// skinnyGemm computes dst = A·B (mode gemmSet), dst += A·B (gemmAdd) or
// dst −= A·B (gemmSub) without packing, where A is a (or aᵀ when aT)
// and B is b, never transposed (the classifier excludes bT shapes). The
// loop nest is row tiles → lane-wide column chunks → KC depth chunks,
// so an inner-product shape streams each A row strip exactly once and a
// rank-w update keeps its tiny B block register-resident; an edge tile
// swaps the inner two loops so its padded A strip is gathered once per
// depth chunk. Fan-out splits the row tiles across engine workers; every
// output element is owned by one worker with the serial accumulation
// order, so engine and serial runs agree bit for bit.
func skinnyGemm(e *compute.Engine, dst view, a view, aT bool, b view, mode int) {
	m, n := dst.r, dst.c
	k := a.c
	aOff, aStep := a.stride, 1
	if aT {
		k = a.r
		aOff, aStep = 1, a.stride
	}
	if k != b.r {
		panic("mat: skinny gemm inner dimension mismatch")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if mode == gemmSet {
			for i := 0; i < m; i++ {
				row := dst.data[i*dst.stride : i*dst.stride+n]
				for j := range row {
					row[j] = 0
				}
			}
		}
		return
	}
	tr, _ := skinnyTile()
	tiles := (m + tr - 1) / tr
	job := skinnyJob{dst: dst, a: a, b: b, aT: aT, mode: mode, k: k, aOff: aOff, aStep: aStep}
	if fanOut(e, m*k*n) && tiles > 1 {
		e.ParallelFor(tiles, job.run)
	} else {
		job.run(0, tiles)
	}
}

// skinnyJob is one skinnyGemm call's operands. Its run method is the
// per-worker body: a method value of a plain struct, so the serial path
// calls it without allocating a closure.
type skinnyJob struct {
	dst, a, b            view
	aT                   bool
	mode, k, aOff, aStep int
}

// run computes row tiles [lo, hi) of the product.
func (j skinnyJob) run(lo, hi int) {
	dst, a, b, aT, mode := j.dst, j.a, j.b, j.aT, j.mode
	m, n, k, aOff, aStep := dst.r, dst.c, j.k, j.aOff, j.aStep
	p := bp64
	tr, lanes := skinnyTile()
	kcMax := min(p.kc, k)
	// Edge row tiles (rows < tr) on the asm tiers go through a
	// zero-padded A scratch so the full-tile kernel still runs — the
	// zero rows feed accumulators whose results are discarded at the
	// merge, leaving valid elements' chains untouched. The generic
	// kernel takes short tiles directly. Scratch is borrowed lazily:
	// tile-aligned m (the common case) never allocates.
	var ascratch []float64
	var ctile [mrMax * nrMax]float64
	for ti := lo; ti < hi; ti++ {
		i0 := ti * tr
		rows := min(tr, m-i0)
		if rows == tr || gemmTier == tierGeneric {
			for jc := 0; jc < n; jc += lanes {
				w := min(lanes, n-jc)
				ci := i0*dst.stride + jc
				for pc := 0; pc < k; pc += p.kc {
					kc := min(p.kc, k-pc)
					md := mode
					if mode == gemmSet && pc > 0 {
						md = gemmAdd
					}
					ab := a.data[i0*aOff+pc*aStep:]
					skinnyKernel(dst.data[ci:], dst.stride, ab, aOff, aStep, b.data[pc*b.stride+jc:], b.stride, rows, w, kc, md)
				}
			}
			continue
		}
		// An edge tile gathers its A strip once per depth chunk, then
		// sweeps every column chunk over it. A transposed strip is copied
		// one contiguous depth row at a time into a tile-strided scratch
		// (A(r, p) at r + p·tr); a plain one row by row at stride kcMax.
		// Either way the padding rows sit at offsets no gather writes, so
		// zeroing the scratch once per call pads every chunk. Each
		// element's chunks still merge in ascending pc order, so the loop
		// interchange leaves every chain, and every bit, as is.
		sOff, sStep := kcMax, 1
		if aT {
			sOff, sStep = 1, tr
		}
		if ascratch == nil {
			ascratch = packPool.GetF64(tr * kcMax)
			clear(ascratch)
		}
		for pc := 0; pc < k; pc += p.kc {
			kc := min(p.kc, k-pc)
			md := mode
			if mode == gemmSet && pc > 0 {
				md = gemmAdd
			}
			if aT {
				for pp := 0; pp < kc; pp++ {
					src := (pc+pp)*aStep + i0
					copy(ascratch[pp*tr:pp*tr+rows], a.data[src:src+rows])
				}
			} else {
				for r := 0; r < rows; r++ {
					src := (i0+r)*aOff + pc
					copy(ascratch[r*kcMax:r*kcMax+kc], a.data[src:src+kc])
				}
			}
			for jc := 0; jc < n; jc += lanes {
				w := min(lanes, n-jc)
				ci := i0*dst.stride + jc
				for i := range ctile[:tr*lanes] {
					ctile[i] = 0
				}
				skinnyKernel(ctile[:], lanes, ascratch, sOff, sStep, b.data[pc*b.stride+jc:], b.stride, tr, w, kc, gemmSet)
				for r := 0; r < rows; r++ {
					drow := dst.data[ci+r*dst.stride : ci+r*dst.stride+w]
					trow := ctile[r*lanes : r*lanes+w]
					switch md {
					case gemmAdd:
						for t := range drow {
							drow[t] += trow[t]
						}
					case gemmSub:
						for t := range drow {
							drow[t] -= trow[t]
						}
					default:
						copy(drow, trow)
					}
				}
			}
		}
	}
	if ascratch != nil {
		packPool.PutF64(ascratch)
	}
}

// skinnyKernGo is the portable micro-kernel, shared by the generic tier
// and non-amd64 builds. Accumulation is per-element ascending-p unfused
// multiply-add — the same chain as the packed portable kernels
// (gemm_kernels_go.go), which Go does not contract into FMA on amd64 —
// so packed and pack-free results match bit for bit on the generic tier.
func skinnyKernGo(c []float64, ldc int, a []float64, aOff, aStep int, b []float64, ldb, rows, w, kc, mode int) {
	var acc [mrMax][nrMax]float64
	for p := 0; p < kc; p++ {
		brow := b[p*ldb : p*ldb+w]
		ai := p * aStep
		for r := 0; r < rows; r++ {
			ar := a[ai+r*aOff]
			crow := &acc[r]
			for t, bv := range brow {
				crow[t] += ar * bv
			}
		}
	}
	for r := 0; r < rows; r++ {
		drow := c[r*ldc : r*ldc+w]
		arow := acc[r][:w]
		switch mode {
		case gemmAdd:
			for t := range drow {
				drow[t] += arow[t]
			}
		case gemmSub:
			for t := range drow {
				drow[t] -= arow[t]
			}
		default:
			copy(drow, arow)
		}
	}
}
