// Package dmd implements exact Dynamic Mode Decomposition (Tu et al.,
// "On dynamic mode decomposition: theory and applications") plus the
// spectrum quantities (Eq. 9 and Eq. 10 of the paper) that the mrDMD
// layer and its frequency-isolation step are built on.
package dmd

import (
	"errors"
	"math"
	"math/cmplx"

	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// Mode is one DMD eigentriple with its derived spectrum quantities.
type Mode struct {
	Phi    []complex128 // spatial mode, length P, column of Φ = YVΣ⁻¹W
	Lambda complex128   // discrete-time eigenvalue of Ã
	Psi    complex128   // continuous-time exponent ψ = ln(λ)/Δt
	Amp    complex128   // initial amplitude b from Φ b = x₁
	Freq   float64      // |Im ψ| / 2π, cycles per unit time (Eq. 9)
	Power  float64      // ‖φ‖₂² (Eq. 10)
}

// Options configures a decomposition.
type Options struct {
	// DT is the sampling interval of the snapshot columns.
	DT float64
	// Rank fixes the SVD truncation rank; 0 defers to SVHT (or full rank
	// if UseSVHT is false).
	Rank int
	// UseSVHT truncates at the Gavish–Donoho optimal hard threshold.
	UseSVHT bool
	// AmplitudeWindow bounds the Jovanović amplitude fit to the trailing
	// w snapshot columns: the Vandermonde, both Gram terms and the
	// snapshot GEMMs shrink from O(T) to O(w) while the eigenvalue powers
	// stay referenced to t=0, so the fitted b remains a t=0 amplitude.
	// 0 (the default) fits over the full history — bit-identical to the
	// pre-windowed pipeline.
	AmplitudeWindow int
	// Rows is the row count of the snapshots the data stands for, when
	// the data is their coordinates in a smaller orthonormal basis
	// (core's one-factor subtree fit hands ComputeSlow windows of an n×n
	// factor of a P-row residual). SVHT and Decomposition.P then see
	// Rows, and the returned Φ columns stay in the basis' coordinates for
	// the caller to lift. 0 means the data's own row count.
	Rows int
	// Engine routes the parallel kernel sections; nil uses the shared
	// default pool.
	Engine *compute.Engine
	// Ws supplies pooled scratch buffers for the decomposition's
	// intermediates; nil allocates.
	Ws *compute.Workspace
}

// Decomposition is the result of exact DMD on a snapshot matrix.
type Decomposition struct {
	Modes []Mode  // the fitted modes; the slow ones only from ComputeSlow/FromSVDSlow
	P     int     // state dimension (rows)
	T     int     // snapshots used (columns)
	DT    float64 // sampling interval
	Rank  int     // SVD truncation rank actually used = number of fitted modes
}

// ErrTooFewSnapshots is returned when fewer than two snapshot columns are
// available.
var ErrTooFewSnapshots = errors.New("dmd: need at least 2 snapshot columns")

// Compute runs exact DMD on data (P×T, columns are snapshots Δt apart).
func Compute(data *mat.Dense, opts Options) (*Decomposition, error) {
	return ComputeSlow(data, opts, math.Inf(1))
}

// ComputeSlow is Compute returning only the modes that pass IsSlow(ψ, rho)
// — the mrDMD window fit, which never lifts a fast mode to P.
//
// X and Y are two column slices of one window D, so a tall window
// (p ≥ svd.QRPrecondRatio·t, the rule the SVD's own QR preconditioning
// uses) is factored once, D = Q·R, and the whole fit runs on the t×t R:
// the SVD of R_X = R[:, :t−1], B̃ = R_Y·V·Σ⁻¹, Ã = Urᵀ·B̃, BᵀB = B̃ᵀB̃ and
// DᵀB = Rᵀ·B̃, all exact because Q is orthonormal. Only the kept slow
// modes meet Q again, in the lift Φ_k = Q·(B̃·W_k). A shorter window
// takes R = D and Q = I: its SVD runs on a zero-copy view of data's
// leading t−1 columns. The QR and SVD factors are workspace storage
// returned before ComputeSlow does.
func ComputeSlow(data *mat.Dense, opts Options, rho float64) (*Decomposition, error) {
	p, t := data.Dims()
	if t < 2 {
		return nil, ErrTooFewSnapshots
	}
	e, ws := opts.engine(), opts.Ws
	var qr *mat.QR
	r, q := data, (*mat.Dense)(nil)
	if p >= svd.QRPrecondRatio*t {
		qr = mat.QRFactorOn(e, ws, data)
		r, q = qr.R, qr.Q
	}
	s := svd.ComputePooledWith(e, ws, mat.ColsView(r, 0, t-1))
	dec, err := fit(s, r, q, opts, rho)
	s.Release(ws)
	if qr != nil {
		qr.Release(ws)
	}
	return dec, err
}

// engine resolves the configured engine, defaulting to the shared pool.
func (o Options) engine() *compute.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return compute.Default()
}

// IsSlow is the mrDMD slow-mode criterion |ψ|/(2π) ≤ rho (cycles per unit
// time). Following the reference mrDMD implementation it applies the
// modulus of the full complex exponent, so fast-growing and fast-decaying
// modes also count as "fast".
func IsSlow(psi complex128, rho float64) bool {
	return cmplx.Abs(psi)/(2*math.Pi) <= rho
}

// FromSVD finishes a DMD given the (possibly incrementally maintained)
// economy SVD of X = snapshots[:, :T-1] and returns every fitted mode. This
// split is what lets I-mrDMD reuse the incremental SVD state at level 1.
// Amplitudes are fitted over all snapshots (Jovanović et al. optimal
// amplitudes), not just the first one — essential for mrDMD, where a poor
// slow-mode amplitude leaks error into every deeper level.
func FromSVD(s *svd.Result, snapshots *mat.Dense, opts Options) (*Decomposition, error) {
	return FromSVDSlow(s, snapshots, opts, math.Inf(1))
}

// FromSVDSlow is FromSVD returning only the modes that pass IsSlow(ψ, rho);
// rho = +Inf keeps every mode. Decomposition.Rank still counts all fitted
// modes, and the amplitudes are fitted jointly over all of them, so the
// kept modes are exactly those of the unfiltered call.
func FromSVDSlow(s *svd.Result, snapshots *mat.Dense, opts Options, rho float64) (*Decomposition, error) {
	return fit(s, snapshots, nil, opts, rho)
}

// fit is the one window-DMD fit. s is the economy SVD of X = d[:, :t−1],
// and d (m×t) is either the snapshots themselves (q nil, m = p) or the
// R factor of snapshots = q·d (q p×m column-orthonormal, m = t). Every
// product below runs in d's row space, which q maps isometrically onto
// the snapshots' one, so Ã, the amplitude Grams and hence λ and b are
// those of the snapshots' own fit.
//
// The fit runs in the r-dimensional mode space. With B = Y·V·Σ⁻¹ (m×r)
// and W the eigenvectors of Ã, the exact DMD modes are q·B·W, so:
//
//   - Ã = Uᵀ·B (r×r);
//   - ΦᴴΦ = Wᴴ·(BᵀB)·W, one real Gram of B plus O(r³) work;
//   - DᵀΦ = (Dᵀ·B)·W, one real GEMM plus O(t·r²) work;
//   - only the kept columns of Φ are lifted to P, as q·(B·Re W) and
//     q·(B·Im W).
//
// With q nil, besides Y·V every P-sized pass is a GEMM against B, and no
// P-sized complex intermediate is formed; with q set, the lift is the
// only P-sized pass.
func fit(s *svd.Result, d, q *mat.Dense, opts Options, rho float64) (*Decomposition, error) {
	if opts.DT <= 0 {
		return nil, errors.New("dmd: Options.DT must be positive")
	}
	p, t := d.Dims()
	if q != nil {
		p = q.R
	}
	if opts.Rows > 0 {
		p = opts.Rows
	}
	if t < 2 {
		return nil, ErrTooFewSnapshots
	}
	e, ws := opts.engine(), opts.Ws
	rank := s.Rank()
	if opts.UseSVHT {
		// The threshold depends on the aspect ratio of X itself (p×(t−1)),
		// not on that of the factor the SVD ran on.
		rank = svd.SVHTRankWith(ws, s.S, p, s.V.R)
	}
	if opts.Rank > 0 && opts.Rank < rank {
		rank = opts.Rank
	}
	rank = max(rank, 1)
	rank = min(rank, s.Rank())
	// Guard degenerate data: no rows, or an all-zero singular spectrum.
	if rank == 0 || s.S[0] == 0 {
		return &Decomposition{Modes: nil, P: p, T: t, DT: opts.DT, Rank: 0}, nil
	}
	sv := s.S[:rank]
	u := mat.ColsView(s.U, 0, rank) // zero-copy truncation: every consumer is stride-aware
	v := mat.ColsView(s.V, 0, rank)
	y := mat.ColsView(d, 1, t)

	// B = Y V Σ⁻¹ (m×r).
	yvs := mat.MulWith(e, ws, y, v)
	for i := 0; i < yvs.R; i++ {
		row := yvs.Row(i)
		for j := range row {
			row[j] /= sv[j]
		}
	}
	// Ã = Uᵀ B (r×r).
	atil := mat.MulTWith(e, ws, u, yvs)
	vals, w := eigen(ws, atil)
	mat.PutDense(ws, atil)

	b := optimalAmplitudes(e, ws, yvs, w, vals, d, opts.AmplitudeWindow)

	keepAll := math.IsInf(rho, 1) // every mode, even one with a NaN ψ
	keep := make([]int, 0, len(vals))
	psis := make([]complex128, len(vals))
	for j, lam := range vals {
		psis[j] = logLambda(lam, opts.DT)
		if keepAll || IsSlow(psis[j], rho) {
			keep = append(keep, j)
		}
	}
	var modes []Mode
	if len(keep) > 0 {
		modes = liftModes(e, ws, yvs, w, keep, q)
		for jj, j := range keep {
			m := &modes[jj]
			m.Lambda, m.Psi, m.Amp = vals[j], psis[j], b[j]
			m.Freq = math.Abs(imag(psis[j])) / (2 * math.Pi)
		}
	}
	mat.PutDense(ws, yvs)
	mat.PutCDense(ws, w)
	return &Decomposition{Modes: modes, P: p, T: t, DT: opts.DT, Rank: rank}, nil
}

// liftModes forms the columns keep of Φ = q·B·W as two real products,
// q·(B·Re W) and q·(B·Im W) (q nil: B·Re W and B·Im W), and returns one
// Mode per kept column with Phi and Power (‖φ‖²) set.
func liftModes(e *compute.Engine, ws *compute.Workspace, yvs *mat.Dense, w *mat.CDense, keep []int, q *mat.Dense) []Mode {
	r, k := w.R, len(keep)
	wRe := mat.GetDenseRaw(ws, r, k)
	wIm := mat.GetDenseRaw(ws, r, k)
	for i := 0; i < r; i++ {
		re, im := wRe.Row(i), wIm.Row(i)
		for jj, j := range keep {
			c := w.At(i, j)
			re[jj], im[jj] = real(c), imag(c)
		}
	}
	phiRe := mat.MulWith(e, ws, yvs, wRe) // m×k
	phiIm := mat.MulWith(e, ws, yvs, wIm) // m×k
	mat.PutDense(ws, wRe)
	mat.PutDense(ws, wIm)
	if q != nil {
		re, im := mat.MulWith(e, ws, q, phiRe), mat.MulWith(e, ws, q, phiIm) // p×k
		mat.PutDense(ws, phiRe)
		mat.PutDense(ws, phiIm)
		phiRe, phiIm = re, im
	}
	p := phiRe.R
	modes := make([]Mode, k)
	phis := make([]complex128, k*p) // one allocation backs every kept column
	for jj := range modes {
		col := phis[jj*p : (jj+1)*p : (jj+1)*p]
		var pow float64
		for i := range col {
			re, im := phiRe.At(i, jj), phiIm.At(i, jj)
			col[i] = complex(re, im)
			pow += re*re + im*im
		}
		modes[jj].Phi, modes[jj].Power = col, pow
	}
	mat.PutDense(ws, phiRe)
	mat.PutDense(ws, phiIm)
	return modes
}

// optimalAmplitudes solves min_b ‖X − Φ diag(b) V‖_F where V is the
// Vandermonde matrix V[i,k] = λᵢᵏ over all T snapshots (Jovanović,
// Schmid & Nichols, "Sparsity-promoting dynamic mode decomposition").
// The normal equations are
//
//	(ΦᴴΦ ∘ conj(V Vᴴ)) b = conj(diag(V Xᴴ Φ))
//
// with ∘ the Hadamard product; the system matrix is positive
// semidefinite by the Schur product theorem.
//
// Φ is never formed: the caller passes B = Y·V·Σ⁻¹ (m×r) and the
// eigenvectors W (r×r) with Φ = q·B·W, so ΦᴴΦ = Wᴴ·(BᵀB)·W and
// XᵀΦ = (DᵀB)·W, where snapshots = q·D; q drops out of both because it
// is column-orthonormal, and D is the snapshots themselves when there is
// no q. The only m-sized work is the Gram BᵀB and the product DᵀB, both
// real GEMMs; the rest is O(r³ + t·r²).
//
// win > 0 restricts the fit to the trailing win snapshot columns
// [t−win, t): the Vandermonde keeps its absolute powers λᵏ (so b stays a
// t=0 amplitude) but only the windowed columns enter V, G2 and the
// snapshot contraction, turning the per-refresh cost from O(T) to O(win).
// win ≤ 0 or win ≥ t fits the full history, bit-identical to the
// unwindowed code path.
func optimalAmplitudes(e *compute.Engine, ws *compute.Workspace, yvs *mat.Dense, w *mat.CDense, vals []complex128, d *mat.Dense, win int) []complex128 {
	t := d.C
	r := len(vals)
	k0 := 0
	if win > 0 && win < t {
		k0 = t - win
	}
	tw := t - k0
	// Vandermonde V (r×tw): powers λᵏ for k in [k0, t) of the discrete
	// eigenvalues. The power recurrence always starts at k=0 with its
	// magnitude clamp (so explosive spurious eigenvalues cannot overflow
	// and the windowed trajectory matches the full one bit for bit); only
	// the windowed columns are stored.
	vand := mat.GetCDense(ws, r, tw)
	for i, lam := range vals {
		z := complex(1, 0)
		for k := 0; k < t; k++ {
			if k >= k0 {
				vand.Set(i, k-k0, z)
			}
			z *= lam
			if a := real(z)*real(z) + imag(z)*imag(z); a > 1e300 {
				z = z / complex(math.Sqrt(a), 0) * complex(1e150, 0)
			}
		}
	}
	// System matrix P = G1 ∘ conj(G2) with G1 = ΦᴴΦ = Wᴴ (BᵀB) W and
	// G2 = V Vᴴ, both r×r.
	bb := mat.GramWith(e, ws, yvs, true)
	sys := mat.GetCDense(ws, r, r)
	acc := ws.GetC128(r) // r-vector scratch
	for j := 0; j < r; j++ {
		for i := 0; i < r; i++ { // acc = (BᵀB)·w_j
			var s complex128
			for k, g := range bb.Row(i) {
				c := w.At(k, j)
				s += complex(g*real(c), g*imag(c))
			}
			acc[i] = s
		}
		for i := 0; i < r; i++ {
			var g1, g2 complex128
			for k := 0; k < r; k++ {
				g1 += cmplx.Conj(w.At(k, i)) * acc[k]
			}
			for k := 0; k < tw; k++ {
				g2 += vand.At(i, k) * cmplx.Conj(vand.At(j, k))
			}
			sys.Set(i, j, g1*cmplx.Conj(g2))
		}
	}
	mat.PutDense(ws, bb)
	// rhs q = conj(diag(V Xᴴ Φ)) with XᵀΦ = (DᵀB)·W: the m×tw×r
	// contraction is one real GEMM, and
	// (V Xᴴ Φ)[i,i] = Σ_j (Σ_k V[i,k]·(DᵀB)[k,j]) · W[j,i].
	dWin := mat.ColsView(d, k0, t)       // m×tw, zero-copy
	xb := mat.MulTWith(e, ws, dWin, yvs) // tw×r
	q := make([]complex128, r)
	for i := 0; i < r; i++ {
		for j := range acc { // acc[j] = Σ_k V[i,k]·(DᵀB)[k,j]
			acc[j] = 0
		}
		for k := 0; k < tw; k++ {
			z := vand.At(i, k)
			for j, x := range xb.Row(k) {
				acc[j] += complex(real(z)*x, imag(z)*x)
			}
		}
		var s complex128
		for j := 0; j < r; j++ {
			s += acc[j] * w.At(j, i)
		}
		q[i] = cmplx.Conj(s)
	}
	mat.PutDense(ws, xb)
	ws.PutC128(acc)
	// Tikhonov-style jitter keeps the solve stable when modes coincide.
	var trace float64
	for i := 0; i < r; i++ {
		trace += cmplx.Abs(sys.At(i, i))
	}
	jitter := complex(1e-12*(trace/float64(r)+1), 0)
	for i := 0; i < r; i++ {
		sys.Set(i, i, sys.At(i, i)+jitter)
	}
	b := mat.CLUFactorInPlace(sys).Solve(q) // consumes sys's storage
	if k0 > 0 {
		// A mode that has decayed away before the window opens leaves
		// (almost) no mass in V's row: its normal-equation row is tiny and
		// the solve returns noise scaled by 1/λᵏ⁰ — an estimate that blows
		// up any reconstruction at early times (a mode with 3% of its
		// envelope left amplifies the fit noise ~30×). Below the mass
		// floor, the window simply carries too little signal to reference
		// the mode back to t=0, and reporting it absent is strictly more
		// accurate than reporting the amplified noise.
		var maxScale float64
		scales := make([]float64, r)
		for i := 0; i < r; i++ {
			var s float64
			for k := 0; k < tw; k++ {
				if a := cmplx.Abs(vand.At(i, k)); a > s {
					s = a
				}
			}
			scales[i] = s
			if s > maxScale {
				maxScale = s
			}
		}
		for i := 0; i < r; i++ {
			if scales[i] <= ampWindowMassFloor*maxScale {
				b[i] = 0
			}
		}
	}
	mat.PutCDense(ws, vand)
	mat.PutCDense(ws, sys)
	return b
}

// logLambda computes ψ = ln(λ)/Δt with a floor on |λ| so that numerically
// dead modes (λ≈0, i.e. fully damped within one step) yield a very
// negative but finite growth rate instead of -Inf.
func logLambda(lam complex128, dt float64) complex128 {
	const floor = 1e-300
	if cmplx.Abs(lam) < floor {
		lam = complex(floor, 0)
	}
	return cmplx.Log(lam) / complex(dt, 0)
}

// Reconstruct evaluates the DMD model x(t) = Σ φᵢ e^{ψᵢ t} bᵢ (Eq. 6) at
// the given times (in the same units as DT), returning a real P×len(times)
// matrix (imaginary parts cancel up to roundoff for real data and are
// discarded).
func (d *Decomposition) Reconstruct(times []float64) *mat.Dense {
	out := mat.NewDense(d.P, len(times))
	AddReconstructionWith(nil, nil, out, d.Modes, times)
	return out
}

// ampWindowMassFloor is the windowed amplitude fit's relative mass floor:
// a mode whose |λᵏ| envelope over the fit window peaks below this fraction
// of the dominant mode's is reported with amplitude 0. The floor caps the
// 1/λᵏ⁰ noise amplification of referencing trailing-window information
// back to t=0 at ~1/floor; modes above it keep their (documented, at worst
// floor⁻¹-noise-amplified) estimates.
const ampWindowMassFloor = 0.05

// reconGemmMin is the r·t·p volume above which reconstruction goes
// through the GEMM form instead of the scalar triple loop: below it the
// plane setup costs more than the loop saves.
const reconGemmMin = 4096

// reconPlanes splits Φ and the time-weight matrix W[j,k] = e^{ψⱼtₖ}bⱼ
// into real/imaginary plane matrices for the GEMM evaluation forms.
func reconPlanes(ws *compute.Workspace, p int, modes []Mode, times []float64) (phiRe, phiIm, wRe, wIm *mat.Dense) {
	t, r := len(times), len(modes)
	phiRe = mat.GetDenseRaw(ws, p, r)
	phiIm = mat.GetDenseRaw(ws, p, r)
	for i := 0; i < p; i++ {
		rre, rim := phiRe.Row(i), phiIm.Row(i)
		for j := range modes {
			v := modes[j].Phi[i]
			rre[j], rim[j] = real(v), imag(v)
		}
	}
	wRe = mat.GetDenseRaw(ws, r, t)
	wIm = mat.GetDenseRaw(ws, r, t)
	for j := range modes {
		m := &modes[j]
		wre, wim := wRe.Row(j), wIm.Row(j)
		for k, tk := range times {
			w := ExpPsiT(m.Psi, tk) * m.Amp
			wre[k], wim[k] = real(w), imag(w)
		}
	}
	return phiRe, phiIm, wRe, wIm
}

func putReconPlanes(ws *compute.Workspace, phiRe, phiIm, wRe, wIm *mat.Dense) {
	mat.PutDense(ws, wIm)
	mat.PutDense(ws, wRe)
	mat.PutDense(ws, phiIm)
	mat.PutDense(ws, phiRe)
}

// DriftWith returns ‖Re(Φₒ·Wₒ) − Re(Φₙ·Wₙ)‖_F, the Frobenius distance
// between the reconstructions of the mode sets old and cur at the given
// times, without evaluating either one on the p×len(times) grid.
//
// Re(Φ·W) = [Re Φ  Im Φ]·[Re W; −Im W], so the difference is A·M with
// A = [Re Φₒ  Im Φₒ  Re Φₙ  Im Φₙ] (p×K) and
// M = [Re Wₒ; −Im Wₒ; −Re Wₙ; Im Wₙ] (K×n), and its squared norm is
// Σ M∘(G·M) with the K×K Gram G = AᵀA: O(p·K² + K²·n) in all. A mode
// present bit for bit in both sets adds the same term to either side, so
// it is dropped before A is formed, and identical sets give exactly 0.
// The squared norm is a difference of terms of size ‖slow‖², so the
// result carries an absolute error of about u·‖slow‖²/drift.
func DriftWith(e *compute.Engine, ws *compute.Workspace, old, cur []Mode, times []float64) float64 {
	matched := make([]bool, len(old)+len(cur))
	mo, mc := matched[:len(old)], matched[len(old):]
	for i := range old {
		for j := range cur {
			if !mc[j] && sameMode(&old[i], &cur[j]) {
				mo[i], mc[j] = true, true
				break
			}
		}
	}
	kept := make([]*Mode, 0, len(old)+len(cur))
	for i := range old {
		if !mo[i] {
			kept = append(kept, &old[i])
		}
	}
	nOld := len(kept)
	for j := range cur {
		if !mc[j] {
			kept = append(kept, &cur[j])
		}
	}
	if len(kept) == 0 || len(times) == 0 {
		return 0
	}
	// Column pair (2q, 2q+1) of A holds mode q's Re φ and Im φ; row pair
	// (2q, 2q+1) of M holds ±Re w and ∓Im w, the sign + for old modes.
	p, n, k := len(kept[0].Phi), len(times), 2*len(kept)
	a := mat.GetDenseRaw(ws, p, k)
	m := mat.GetDenseRaw(ws, k, n)
	for q, md := range kept {
		for i, v := range md.Phi {
			row := a.Row(i)
			row[2*q], row[2*q+1] = real(v), imag(v)
		}
		sign := 1.0
		if q >= nOld {
			sign = -1
		}
		re, im := m.Row(2*q), m.Row(2*q+1)
		for c, tc := range times {
			w := ExpPsiT(md.Psi, tc) * md.Amp
			re[c], im[c] = sign*real(w), -sign*imag(w)
		}
	}
	g := mat.GramWith(e, ws, a, true)
	gm := mat.MulWith(e, ws, g, m)
	var s float64
	for i, v := range m.Data[:k*n] {
		s += v * gm.Data[i]
	}
	mat.PutDense(ws, gm)
	mat.PutDense(ws, g)
	mat.PutDense(ws, m)
	mat.PutDense(ws, a)
	return math.Sqrt(math.Max(s, 0))
}

// sameMode reports whether a and b contribute bit-identical terms to a
// reconstruction: the same φ, ψ and b.
func sameMode(a, b *Mode) bool {
	if a.Psi != b.Psi || a.Amp != b.Amp || len(a.Phi) != len(b.Phi) {
		return false
	}
	for i, v := range a.Phi {
		if v != b.Phi[i] {
			return false
		}
	}
	return true
}

// AddReconstructionWith accumulates the mode-sum evaluation into dst
// (dst += X̂) without materializing X̂: the two plane GEMMs run in
// accumulate mode straight into dst. dst may be a column view.
func AddReconstructionWith(e *compute.Engine, ws *compute.Workspace, dst *mat.Dense, modes []Mode, times []float64) {
	accumReconstruction(e, ws, dst, modes, times, 1)
}

// SubReconstructionWith subtracts the mode-sum evaluation from dst
// (dst -= X̂) — the residual flip of the mrDMD recursion, fused so the
// window buffer is the only p×t matrix touched.
func SubReconstructionWith(e *compute.Engine, ws *compute.Workspace, dst *mat.Dense, modes []Mode, times []float64) {
	accumReconstruction(e, ws, dst, modes, times, -1)
}

func accumReconstruction(e *compute.Engine, ws *compute.Workspace, dst *mat.Dense, modes []Mode, times []float64, sign float64) {
	if dst.C != len(times) {
		panic("dmd: reconstruction accumulate shape mismatch")
	}
	p, t, r := dst.R, len(times), len(modes)
	if r == 0 || t == 0 || p == 0 {
		return
	}
	if r*t*p >= reconGemmMin {
		phiRe, phiIm, wRe, wIm := reconPlanes(ws, p, modes, times)
		if sign > 0 {
			mat.MulAddIntoWith(e, dst, phiRe, wRe)
			mat.MulSubIntoWith(e, dst, phiIm, wIm)
		} else {
			mat.MulSubIntoWith(e, dst, phiRe, wRe)
			mat.MulAddIntoWith(e, dst, phiIm, wIm)
		}
		putReconPlanes(ws, phiRe, phiIm, wRe, wIm)
		return
	}
	accumScalar(dst, modes, times, sign)
}

// accumScalar is the mode sum's scalar form, dst += sign·X̂ one column
// of one mode at a time: below reconGemmMin the GEMM planes cost more to
// set up than this loop. sign is ±1, and multiplying by complex(1, 0) is
// exact for finite values, so the overwrite form's sum is bit-identical
// to a plain +=.
func accumScalar(dst *mat.Dense, modes []Mode, times []float64, sign float64) {
	p, s := dst.R, dst.RowStride()
	for j := range modes {
		m := &modes[j]
		for k, tk := range times {
			w := ExpPsiT(m.Psi, tk) * m.Amp * complex(sign, 0)
			if w == 0 {
				continue
			}
			for i := 0; i < p; i++ {
				dst.Data[i*s+k] += real(m.Phi[i] * w)
			}
		}
	}
}

// ExpPsiT computes e^{ψt} with the real exponent clamped so growing modes
// cannot overflow to +Inf when extrapolated across a long window.
func ExpPsiT(psi complex128, t float64) complex128 {
	re := real(psi) * t
	if re > 700 {
		re = 700
	}
	if re < -700 {
		return 0
	}
	im := imag(psi) * t
	return cmplx.Exp(complex(re, im))
}

// SpectrumPoint is one (frequency, power, amplitude) sample of the DMD /
// mrDMD spectrum used for frequency isolation (paper §III-A2, Fig. 5/7).
// The public imrdmd.SpectrumPoint and the server's wire form are aliases
// of it. It stays a comparable value type on purpose: the server's
// spectrum deltas are multiset differences over these values.
type SpectrumPoint struct {
	Freq  float64 `json:"freq"`  // cycles per unit time (Eq. 9)
	Power float64 `json:"power"` // ‖φ‖² (Eq. 10)
	Amp   float64 `json:"amp"`   // |b|, the plotted "mode amplitude"
	Grow  float64 `json:"grow"`  // Re ψ: positive = growing, negative = decaying
	Level int     `json:"level"` // mrDMD level the mode came from (0 for plain DMD)
}

// Spectrum returns the spectrum points of a decomposition.
func (d *Decomposition) Spectrum() []SpectrumPoint {
	pts := make([]SpectrumPoint, 0, len(d.Modes))
	for _, m := range d.Modes {
		pts = append(pts, SpectrumPoint{
			Freq:  m.Freq,
			Power: m.Power,
			Amp:   cmplx.Abs(m.Amp),
			Grow:  real(m.Psi),
		})
	}
	return pts
}
