package dmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// TestFromSVDMatchesCompute verifies the split entry point I-mrDMD uses:
// finishing a DMD from an incrementally maintained SVD must agree with
// Compute on the same snapshots.
func TestFromSVDMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dt := 0.1
	data, _ := linearSystem(rng, 20, 120, []float64{0.4, 1.0}, []float64{-0.05, -0.1}, dt)

	direct, err := Compute(data, Options{DT: dt, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}

	// Incremental SVD of X built in three chunks.
	x := data.ColSlice(0, data.C-1)
	inc := svd.NewIncremental(x.ColSlice(0, 40), 0)
	inc.Update(x.ColSlice(40, 80))
	inc.Update(x.ColSlice(80, x.C))
	viaInc, err := FromSVD(inc.Result(), data, Options{DT: dt, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}

	if len(direct.Modes) != len(viaInc.Modes) {
		t.Fatalf("mode counts differ: %d vs %d", len(direct.Modes), len(viaInc.Modes))
	}
	// Same spectra (order may differ): match eigenvalues pairwise.
	for _, m := range direct.Modes {
		best := math.Inf(1)
		for _, n := range viaInc.Modes {
			if d := cmplx.Abs(m.Lambda - n.Lambda); d < best {
				best = d
			}
		}
		if best > 1e-6 {
			t.Fatalf("eigenvalue %v not matched (closest %g away)", m.Lambda, best)
		}
	}
	// Same reconstructions.
	times := make([]float64, data.C)
	for k := range times {
		times[k] = float64(k) * dt
	}
	d := mat.Sub(direct.Reconstruct(times), viaInc.Reconstruct(times)).FrobNorm()
	if d > 1e-6*(1+data.FrobNorm()) {
		t.Fatalf("reconstructions differ by %g", d)
	}
}

func TestOptimalAmplitudesBeatSingleSnapshot(t *testing.T) {
	// With noise, amplitudes fitted over all snapshots must reconstruct
	// better than amplitudes fitted from x₁ alone (the motivation for the
	// Jovanović formulation in mrDMD).
	rng := rand.New(rand.NewSource(2))
	dt := 1.0
	p, tt := 12, 100
	data := mat.NewDense(p, tt)
	f := 0.03
	for i := 0; i < p; i++ {
		amp := 1 + rng.Float64()
		ph := rng.Float64() * 2 * math.Pi
		for k := 0; k < tt; k++ {
			data.Set(i, k, amp*math.Sin(2*math.Pi*f*float64(k)+ph)+0.3*rng.NormFloat64())
		}
	}
	dec, err := Compute(data, Options{DT: dt, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, tt)
	for k := range times {
		times[k] = float64(k)
	}
	optErr := mat.Sub(dec.Reconstruct(times), data).FrobNorm()

	// Refit amplitudes from the first snapshot only.
	phi := mat.NewCDense(p, len(dec.Modes))
	for j, m := range dec.Modes {
		for i := 0; i < p; i++ {
			phi.Set(i, j, m.Phi[i])
		}
	}
	x1 := make([]complex128, p)
	for i := 0; i < p; i++ {
		x1[i] = complex(data.At(i, 0), 0)
	}
	b1 := cLstSq(phi, x1)
	single := make([]Mode, len(dec.Modes))
	copy(single, dec.Modes)
	for j := range single {
		single[j].Amp = b1[j]
	}
	singleDec := &Decomposition{Modes: single, P: p}
	singleErr := mat.Sub(singleDec.Reconstruct(times), data).FrobNorm()

	if optErr > singleErr {
		t.Fatalf("optimal amplitudes (%g) worse than single-snapshot fit (%g)", optErr, singleErr)
	}
}

func TestReconstructModesEmpty(t *testing.T) {
	out := (&Decomposition{P: 4}).Reconstruct([]float64{0, 1, 2})
	if out.R != 4 || out.C != 3 || out.FrobNorm() != 0 {
		t.Fatal("empty mode reconstruction should be zero matrix")
	}
}

func TestComputeConstantSignal(t *testing.T) {
	// A constant signal is a single λ=1 mode; reconstruction must be
	// exact and the frequency zero.
	data := mat.NewDense(5, 50)
	for i := range data.Data {
		data.Data[i] = 42
	}
	dec, err := Compute(data, Options{DT: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Modes) == 0 {
		t.Fatal("no modes for constant signal")
	}
	for _, m := range dec.Modes {
		if m.Freq > 1e-10 {
			t.Fatalf("constant signal produced oscillation at %g", m.Freq)
		}
	}
	times := []float64{0, 10, 49}
	recon := dec.Reconstruct(times)
	for i := 0; i < 5; i++ {
		for k := range times {
			if math.Abs(recon.At(i, k)-42) > 1e-6 {
				t.Fatalf("constant reconstruction %g want 42", recon.At(i, k))
			}
		}
	}
}

// cLstSq solves min ‖Ax − b‖₂ for complex A (rows ≥ cols) by modified
// Gram–Schmidt QR with re-orthogonalization: the plain least-squares
// reference the amplitude tests compare the fitted amplitudes against.
func cLstSq(a *mat.CDense, b []complex128) []complex128 {
	m, n := a.R, a.C
	if m < n {
		panic("dmd: cLstSq requires rows >= cols")
	}
	if len(b) != m {
		panic("dmd: cLstSq dimension mismatch")
	}
	q := a.Clone()
	r := mat.NewCDense(n, n)
	for j := 0; j < n; j++ {
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				var dot complex128
				for k := 0; k < m; k++ {
					row := q.Data[k*n:]
					dot += cmplx.Conj(row[i]) * row[j]
				}
				r.Data[i*n+j] += dot
				for k := 0; k < m; k++ {
					row := q.Data[k*n:]
					row[j] -= dot * row[i]
				}
			}
		}
		var nrm float64
		for k := 0; k < m; k++ {
			v := q.Data[k*n+j]
			nrm += real(v)*real(v) + imag(v)*imag(v)
		}
		nrm = math.Sqrt(nrm)
		r.Data[j*n+j] = complex(nrm, 0)
		if nrm > 0 {
			inv := complex(1/nrm, 0)
			for k := 0; k < m; k++ {
				q.Data[k*n+j] *= inv
			}
		}
	}
	// qtb = Qᴴ b
	qtb := make([]complex128, n)
	for j := 0; j < n; j++ {
		var s complex128
		for i := 0; i < m; i++ {
			s += cmplx.Conj(q.Data[i*n+j]) * b[i]
		}
		qtb[j] = s
	}
	// Back substitution on R.
	x := make([]complex128, n)
	tol := 1e-13 * maxAbsC(r)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		row := r.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if cmplx.Abs(row[i]) <= tol {
			x[i] = 0
			continue
		}
		x[i] = s / row[i]
	}
	return x
}

func maxAbsC(m *mat.CDense) float64 {
	var s float64
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > s {
			s = a
		}
	}
	return s
}

func TestCLstSqExact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, n := 12, 5
	a := mat.NewCDense(m, n)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	xTrue := make([]complex128, n)
	for i := range xTrue {
		xTrue[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := make([]complex128, m)
	for i := range b {
		for j, v := range a.Row(i) {
			b[i] += v * xTrue[j]
		}
	}
	x := cLstSq(a, b)
	for i := range x {
		if d := x[i] - xTrue[i]; math.Hypot(real(d), imag(d)) > 1e-8 {
			t.Fatalf("cLstSq wrong at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}
