package mat

import "imrdmd/internal/compute"

// This file is the packed, register-blocked GEMM that backs every dense
// multiply in the package (Mul/MulInto/MulT/Gram, and through them every
// CholeskyQR pass) that the pack-free tier (skinny.go) does not take.
// The layout follows the classic Goto/BLIS decomposition:
//
//	for jc over N by NC:                (B panel column block)
//	  for pc over K by KC:              (depth block)
//	    pack B[pc:pc+kc, jc:jc+nc]  →  bp  (strips of NR columns)
//	    for ic over M by MC:            (A panel row block, parallel unit)
//	      pack A[ic:ic+mc, pc:pc+kc] → ap  (strips of MR rows)
//	      macro-kernel: MR×NR register tiles over (ap, bp)
//
// Packing (pack.go) copies both operands into contiguous, tile-ordered
// buffers so the micro-kernel streams unit-stride with no bounds-check or
// stride math in the inner loop, and so transposed operands (MulT, Gram's
// m·mᵀ) cost the same as plain ones — the transpose is absorbed by the
// packing read. Pack buffers are borrowed from a package-level
// compute.Workspace, so steady state packs are allocation-free.
//
// Tile geometry is per-ISA, resolved at boot (tune.go): the micro-tile
// is 4×4 on the generic and AVX2 tiers and 8×16 on the AVX-512 tier.
// KC/MC/NC are 256/128/512 on every tier. Edge tiles (rows < MR or
// width < NR) run the same kernel into a zero-padded scratch tile and
// merge the valid region, so the hot path has no remainder branches.
//
// Parallelism: the engine fans out over MC row panels (each worker packs
// its own A panels; the B panel is packed once by the caller and shared
// read-only). Panel boundaries align with tile boundaries and each output
// element is owned by exactly one worker with the same per-element
// accumulation order as the serial loop, so engine and serial runs agree
// bit for bit (mul_parallel_test.go and gemm_test.go pin this).
const (
	mrMax = 8  // tallest micro-kernel tile (AVX-512 tiers)
	nrMax = 16 // widest micro-kernel tile (AVX-512 tiers)
)

// Micro-kernel output modes.
const (
	gemmSet = iota // dst tile = product
	gemmAdd        // dst tile += product
	gemmSub        // dst tile -= product
)

// packPool supplies pack buffers for all GEMM calls in the process. It is
// deliberately package-level (not the caller's workspace): pack buffers
// never escape a call, every caller needs the same two size classes, and
// a shared pool keeps even ws==nil entry points allocation-free in
// steady state.
var packPool = compute.NewWorkspace()

// gemmKernel dispatches one register tile to the micro-kernel of the
// active tier: 4×4 on the generic and AVX2 tiers, 8×16 on the AVX-512
// tier — the same tier bp64 sized the packed strips for.
func gemmKernel(c []float64, ldc int, ap, bp []float64, kc, mode int) {
	if gemmTier == tierAVX512 {
		gemmKernel8x16d(c, ldc, ap, bp, kc, mode)
	} else {
		gemmKernel4x4(c, ldc, ap, bp, kc, mode)
	}
}

// view is a strided window into row-major storage: element (i, j) lives at
// data[i*stride + j]. It lets the GEMM operate on submatrices (column
// views, capacity-padded histories) without copying them out first.
type view struct {
	data   []float64
	r, c   int
	stride int
}

func denseView(m *Dense) view {
	return view{data: m.Data, r: m.R, c: m.C, stride: m.RowStride()}
}

// gemmView computes dst = A·B (mode gemmSet), dst += A·B (gemmAdd) or
// dst −= A·B (gemmSub), where A is a (or aᵀ when aT) and B is b (or bᵀ
// when bT). dst must be sized M×N with M = rows(A), N = cols(B); the
// shared inner dimension K is taken from the operands. dst must not
// overlap a or b. A nil engine (or a small problem) runs serially.
func gemmView(e *compute.Engine, dst view, a view, aT bool, b view, bT bool, mode int) {
	m, n := dst.r, dst.c
	k := a.c
	if aT {
		k = a.r
	}
	kb := b.r
	if bT {
		kb = b.c
	}
	if k != kb {
		panic("mat: gemm inner dimension mismatch")
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
	p := bp64
	mr, nr := p.mr, p.nr

	// The parallel unit is normally a full MC panel. A matrix shorter than
	// one panel would lose all fan-out, so its single panel is subdivided
	// into mr-aligned row bands, one per lane: strip boundaries stay on
	// the same global mr-row grid and every output element keeps its serial
	// per-element accumulation order, so the result is still bit-identical
	// to the serial run for any band size.
	unit := p.mc
	wantParallel := fanOut(e, m*k*n)
	if wantParallel && m <= p.mc && m >= 2*mr {
		perLane := (m + e.Workers() - 1) / e.Workers()
		unit = (perLane + mr - 1) / mr * mr
	}
	panels := (m + unit - 1) / unit
	parallel := panels > 1 && wantParallel

	// Pack buffers are sized for the problem at hand, not the blocking
	// maxima, so a product narrower or shallower than one NC×KC panel
	// borrows only the size class it touches.
	kcMax := min(p.kc, k)
	bp := packPool.GetF64(((min(p.nc, n) + nr - 1) / nr) * nr * kcMax)
	for jc := 0; jc < n; jc += p.nc {
		nc := min(p.nc, n-jc)
		for pc := 0; pc < k; pc += p.kc {
			kc := min(p.kc, k-pc)
			packB(bp, b, bT, pc, kc, jc, nc, nr)
			md := mode
			if mode == gemmSet && pc > 0 {
				md = gemmAdd
			}
			job := gemmJob{dst: dst, a: a, aT: aT, bp: bp, unit: unit, kcMax: kcMax, pc: pc, kc: kc, jc: jc, nc: nc, mode: md}
			if parallel {
				e.ParallelFor(panels, job.run)
			} else {
				job.run(0, panels)
			}
		}
	}
	packPool.PutF64(bp)
}

// gemmJob is one depth chunk of a gemmView call against its packed B
// panel. Its run method is the per-worker body: a method value of a plain
// struct, so the serial path calls it without allocating a closure.
type gemmJob struct {
	dst, a                            view
	aT                                bool
	bp                                []float64
	unit, kcMax, pc, kc, jc, nc, mode int
}

// run packs and multiplies A panels [lo, hi), each unit rows tall.
func (j gemmJob) run(lo, hi int) {
	mr, nr := bp64.mr, bp64.nr
	ap := packPool.GetF64(j.unit * j.kcMax)
	for pi := lo; pi < hi; pi++ {
		ic := pi * j.unit
		mc := min(j.unit, j.dst.r-ic)
		packA(ap, j.a, j.aT, ic, mc, j.pc, j.kc, mr)
		gemmMacro(j.dst, ap, j.bp, ic, mc, j.jc, j.nc, j.kc, mr, nr, j.mode)
	}
	packPool.PutF64(ap)
}

// gemmMacro runs the register-tile sweep of one packed A panel against the
// packed B panel: B strips outer (each strip stays L1-resident across the
// panel's rows), A strips inner. Interior tiles store straight into dst;
// edge tiles go through a zero-padded scratch tile and merge.
func gemmMacro(dst view, ap, bp []float64, ic, mc, jc, nc, kc, mr, nr, mode int) {
	var tile [mrMax * nrMax]float64
	for js := 0; js < nc; js += nr {
		bstrip := bp[(js/nr)*kc*nr:]
		w := min(nr, nc-js)
		for is := 0; is < mc; is += mr {
			astrip := ap[(is/mr)*kc*mr:]
			rows := min(mr, mc-is)
			ci := (ic+is)*dst.stride + jc + js
			if rows == mr && w == nr {
				gemmKernel(dst.data[ci:], dst.stride, astrip, bstrip, kc, mode)
				continue
			}
			for i := range tile[:mr*nr] {
				tile[i] = 0
			}
			gemmKernel(tile[:], nr, astrip, bstrip, kc, gemmSet)
			for r := 0; r < rows; r++ {
				drow := dst.data[ci+r*dst.stride : ci+r*dst.stride+w]
				trow := tile[r*nr : r*nr+w]
				switch mode {
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
