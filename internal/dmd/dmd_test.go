package dmd

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
)

// linearSystem generates snapshots of x_{k+1} = A x_k for a known stable A
// with oscillatory eigenvalues, lifted to dimension p through a random
// orthonormal map so DMD has to find the latent dynamics.
func linearSystem(rng *rand.Rand, p, t int, freqs []float64, decays []float64, dt float64) (*mat.Dense, []complex128) {
	r := 2 * len(freqs)
	lift := mat.QRFactor(randDense(rng, p, r)).Q
	// Latent state: pairs of (cos, sin) oscillators.
	data := mat.NewDense(p, t)
	var eigs []complex128
	for fi, f := range freqs {
		om := 2 * math.Pi * f
		lam := cmplx.Exp(complex(decays[fi]*dt, om*dt))
		eigs = append(eigs, lam, cmplx.Conj(lam))
		amp := 1.0 + rng.Float64()
		phase := rng.Float64() * 2 * math.Pi
		for k := 0; k < t; k++ {
			tt := float64(k) * dt
			c := amp * math.Exp(decays[fi]*tt) * math.Cos(om*tt+phase)
			s := amp * math.Exp(decays[fi]*tt) * math.Sin(om*tt+phase)
			for i := 0; i < p; i++ {
				data.Data[i*t+k] += lift.At(i, 2*fi)*c + lift.At(i, 2*fi+1)*s
			}
		}
	}
	return data, eigs
}

func randDense(rng *rand.Rand, r, c int) *mat.Dense {
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestComputeRecoversKnownEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dt := 0.1
	data, wantEigs := linearSystem(rng, 30, 200, []float64{0.5, 1.2}, []float64{-0.05, -0.2}, dt)
	dec, err := Compute(data, Options{DT: dt})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Modes) < len(wantEigs) {
		t.Fatalf("got %d modes, want at least %d", len(dec.Modes), len(wantEigs))
	}
	// Every true eigenvalue must be matched by some DMD eigenvalue.
	for _, w := range wantEigs {
		best := math.Inf(1)
		for _, m := range dec.Modes {
			if d := cmplx.Abs(m.Lambda - w); d < best {
				best = d
			}
		}
		if best > 1e-6 {
			t.Fatalf("eigenvalue %v not recovered (closest at distance %g)", w, best)
		}
	}
}

// TestComputeZeroRows: DMD of a 0×T matrix is an empty decomposition.
func TestComputeZeroRows(t *testing.T) {
	dec, err := Compute(mat.NewDense(0, 64), Options{DT: 1, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Modes) != 0 || dec.Rank != 0 || dec.T != 64 {
		t.Fatalf("got %d modes at rank %d over %d columns, want none at rank 0 over 64", len(dec.Modes), dec.Rank, dec.T)
	}
}

func TestComputeFrequenciesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dt := 0.05
	want := 0.8 // cycles per unit time
	data, _ := linearSystem(rng, 20, 300, []float64{want}, []float64{0}, dt)
	dec, err := Compute(data, Options{DT: dt})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range dec.Modes {
		if math.Abs(m.Freq-want) < 1e-6 {
			found = true
		}
	}
	if !found {
		freqs := make([]float64, len(dec.Modes))
		for i, m := range dec.Modes {
			freqs[i] = m.Freq
		}
		t.Fatalf("frequency %v not found in %v", want, freqs)
	}
}

func TestReconstructMatchesData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dt := 0.1
	data, _ := linearSystem(rng, 25, 150, []float64{0.3, 0.9}, []float64{-0.1, -0.3}, dt)
	dec, err := Compute(data, Options{DT: dt})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, 150)
	for k := range times {
		times[k] = float64(k) * dt
	}
	recon := dec.Reconstruct(times)
	if d := mat.Sub(recon, data).FrobNorm(); d > 1e-5*(1+data.FrobNorm()) {
		t.Fatalf("reconstruction error %g too large", d)
	}
}

func TestComputePredictsFuture(t *testing.T) {
	// Fit on the first half, predict the second half (Eq. 6).
	rng := rand.New(rand.NewSource(4))
	dt := 0.1
	data, _ := linearSystem(rng, 15, 200, []float64{0.4}, []float64{-0.02}, dt)
	train := data.ColSlice(0, 100)
	dec, err := Compute(train, Options{DT: dt})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, 200)
	for k := range times {
		times[k] = float64(k) * dt
	}
	pred := dec.Reconstruct(times)
	if d := mat.Sub(pred, data).FrobNorm(); d > 1e-3*(1+data.FrobNorm()) {
		t.Fatalf("extrapolation error %g too large for a noise-free linear system", d)
	}
}

func TestTooFewSnapshots(t *testing.T) {
	if _, err := Compute(mat.NewDense(5, 1), Options{DT: 1}); err != ErrTooFewSnapshots {
		t.Fatalf("want ErrTooFewSnapshots, got %v", err)
	}
}

func TestBadDT(t *testing.T) {
	if _, err := Compute(mat.NewDense(5, 10), Options{DT: 0}); err == nil {
		t.Fatal("want error for DT=0")
	}
}

func TestZeroDataProducesNoModes(t *testing.T) {
	dec, err := Compute(mat.NewDense(5, 10), Options{DT: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Modes) != 0 {
		t.Fatalf("zero data produced %d modes", len(dec.Modes))
	}
	recon := dec.Reconstruct([]float64{0, 1, 2})
	if recon.FrobNorm() != 0 {
		t.Fatal("zero-mode reconstruction must be zero")
	}
}

func TestFixedRankTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := linearSystem(rng, 20, 100, []float64{0.2, 0.7, 1.5}, []float64{0, 0, 0}, 0.1)
	dec, err := Compute(data, Options{DT: 0.1, Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rank != 2 || len(dec.Modes) != 2 {
		t.Fatalf("rank = %d modes = %d, want 2", dec.Rank, len(dec.Modes))
	}
}

func TestSVHTTruncatesNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data, _ := linearSystem(rng, 40, 300, []float64{0.5}, []float64{0}, 0.1)
	// Scale the signal well above the added unit-ish noise.
	for i := range data.Data {
		data.Data[i] = 100*data.Data[i] + 0.01*rng.NormFloat64()
	}
	dec, err := Compute(data, Options{DT: 0.1, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rank > 6 {
		t.Fatalf("SVHT kept %d directions for a rank-2 signal", dec.Rank)
	}
}

func TestSlowModesPartition(t *testing.T) {
	psis := []complex128{
		complex(0, 2*math.Pi*0.1), // 0.1 cycles/unit
		complex(0, 2*math.Pi*5.0), // 5 cycles/unit
		complex(-10, 0),           // strong decay: |ψ|/2π ≈ 1.6
	}
	var slow, fast int
	for _, psi := range psis {
		if IsSlow(psi, 0.5) {
			slow++
		} else {
			fast++
		}
	}
	if slow != 1 || fast != 2 {
		t.Fatalf("slow=%d fast=%d want 1,2", slow, fast)
	}
}

func TestSpectrumQuantities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dt := 0.1
	data, _ := linearSystem(rng, 10, 100, []float64{0.6}, []float64{-0.1}, dt)
	dec, err := Compute(data, Options{DT: dt})
	if err != nil {
		t.Fatal(err)
	}
	pts := dec.Spectrum()
	if len(pts) != len(dec.Modes) {
		t.Fatal("spectrum length mismatch")
	}
	for i, p := range pts {
		if p.Freq < 0 || p.Power < 0 || p.Amp < 0 {
			t.Fatalf("negative spectrum quantity at %d: %+v", i, p)
		}
		// Eq. 10: power equals squared mode norm.
		var pow float64
		for _, c := range dec.Modes[i].Phi {
			pow += real(c)*real(c) + imag(c)*imag(c)
		}
		if math.Abs(p.Power-pow) > 1e-12*(1+pow) {
			t.Fatal("power does not match ‖φ‖²")
		}
	}
}

func TestFilterBand(t *testing.T) {
	pts := []SpectrumPoint{{Freq: 0.1}, {Freq: 1}, {Freq: 10}}
	got := FilterBand(pts, 0.5, 5)
	if len(got) != 1 || got[0].Freq != 1 {
		t.Fatalf("FilterBand = %+v", got)
	}
}

func TestExpPsiTOverflowClamped(t *testing.T) {
	w := expPsiT(complex(1000, 0), 10)
	if math.IsInf(real(w), 0) || math.IsNaN(real(w)) {
		t.Fatal("growth clamp failed")
	}
	if z := expPsiT(complex(-1e6, 0), 10); z != 0 {
		t.Fatal("strong decay should underflow to exactly 0")
	}
}

func TestLogLambdaZeroSafe(t *testing.T) {
	psi := logLambda(0, 0.5)
	if math.IsInf(real(psi), 0) || math.IsNaN(real(psi)) {
		t.Fatalf("logLambda(0) not finite: %v", psi)
	}
	if real(psi) >= 0 {
		t.Fatal("λ=0 must map to strong decay")
	}
}

func BenchmarkCompute200x500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data, _ := linearSystem(rng, 200, 500, []float64{0.2, 0.5, 1.1}, []float64{-0.1, -0.05, -0.2}, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(data, Options{DT: 0.1, UseSVHT: true}); err != nil {
			b.Fatal(err)
		}
	}
}
