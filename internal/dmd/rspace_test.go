package dmd_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
	"imrdmd/internal/svd"
)

// svdOfXComputeSlow is the window fit as it ran before ComputeSlow
// factored the window: the SVD of X = data[:, :t−1] on the snapshots
// themselves, then the fit against the full p-row snapshots. It is the
// reference the R-space route is held to.
func svdOfXComputeSlow(data *mat.Dense, opts dmd.Options, rho float64) (*dmd.Decomposition, error) {
	e := opts.Engine
	if e == nil {
		e = compute.Default()
	}
	s := svd.ComputePooledWith(e, opts.Ws, mat.ColsView(data, 0, data.C-1))
	dec, err := dmd.FromSVDSlow(s, data, opts, rho)
	s.Release(opts.Ws)
	return dec, err
}

// relDiff is |a − b| / |b|, or |a − b| when b is zero.
func relDiff(a, b complex128) float64 {
	d := cmplx.Abs(a - b)
	if n := cmplx.Abs(b); n > 0 {
		return d / n
	}
	return d
}

// checkFinite fails on any non-finite λ, amplitude or Φ entry.
func checkFinite(t *testing.T, name string, dec *dmd.Decomposition) {
	t.Helper()
	bad := func(c complex128) bool { return cmplx.IsNaN(c) || cmplx.IsInf(c) }
	for j, m := range dec.Modes {
		if bad(m.Lambda) || bad(m.Amp) || math.IsNaN(m.Power) || math.IsInf(m.Power, 0) {
			t.Fatalf("%s mode %d: non-finite λ=%v b=%v power=%v", name, j, m.Lambda, m.Amp, m.Power)
		}
		for i, c := range m.Phi {
			if bad(c) {
				t.Fatalf("%s mode %d: Φ[%d] = %v", name, j, i, c)
			}
		}
	}
}

// compareFits holds got to want: the same rank and kept-mode count, and
// per mode λ within 1e-10 relative, b within 1e-9 relative and Φ within
// 1e-9 relative in the max norm — or every bit equal when bitwise.
func compareFits(t *testing.T, name string, got, want *dmd.Decomposition, bitwise bool) {
	t.Helper()
	checkFinite(t, name, got)
	if got.Rank != want.Rank || len(got.Modes) != len(want.Modes) {
		t.Fatalf("%s: rank %d with %d kept modes, reference rank %d with %d", name, got.Rank, len(got.Modes), want.Rank, len(want.Modes))
	}
	for j, w := range want.Modes {
		g := got.Modes[j]
		if bitwise {
			if g.Lambda != w.Lambda || g.Amp != w.Amp || g.Power != w.Power {
				t.Fatalf("%s mode %d: (λ, b, ‖φ‖²) = (%v, %v, %v), reference (%v, %v, %v)", name, j, g.Lambda, g.Amp, g.Power, w.Lambda, w.Amp, w.Power)
			}
			for i := range w.Phi {
				if g.Phi[i] != w.Phi[i] {
					t.Fatalf("%s mode %d: Φ[%d] = %v, reference %v", name, j, i, g.Phi[i], w.Phi[i])
				}
			}
			continue
		}
		if d := relDiff(g.Lambda, w.Lambda); d > 1e-10 {
			t.Fatalf("%s mode %d: λ = %v, reference %v (rel %g)", name, j, g.Lambda, w.Lambda, d)
		}
		if d := relDiff(g.Amp, w.Amp); d > 1e-9 {
			t.Fatalf("%s mode %d: b = %v, reference %v (rel %g)", name, j, g.Amp, w.Amp, d)
		}
		var diff, norm float64
		for i, c := range w.Phi {
			diff = math.Max(diff, cmplx.Abs(g.Phi[i]-c))
			norm = math.Max(norm, cmplx.Abs(c))
		}
		if diff > 1e-9*norm {
			t.Fatalf("%s mode %d: Φ differs by %g (scale %g)", name, j, diff, norm)
		}
	}
}

// TestRSpaceWindowFitMatchesSVDOfX runs ComputeSlow against the SVD-of-X
// reference on SC-Log windows across the workload heights, including a
// window subsampled at stride 3. Windows at least QRPrecondRatio times
// as tall as they are wide take the R-space route and must agree to the
// stated tolerances; the rest take R = D and must agree bit for bit.
func TestRSpaceWindowFitMatchesSVDOfX(t *testing.T) {
	const dt = 20.0
	eng := compute.NewEngine(1)
	defer eng.Close()
	ws := compute.NewWorkspace()
	ps := []int{4392, 200, 48, 12, 8}
	if testing.Short() {
		ps = ps[1:]
	}
	for _, p := range ps {
		for _, cols := range []int{10, 16, 20, 23, 31} {
			type window struct {
				name   string
				data   *mat.Dense
				stride int
			}
			src := bench.SCLogData(p, 3*cols, int64(p+cols))
			windows := []window{
				{"stride1", mat.ColSliceWith(nil, src, 0, cols), 1},
				{"stride3", mat.SubsampleWith(nil, src, 3), 3},
			}
			for _, w := range windows {
				rSpace := p >= svd.QRPrecondRatio*w.data.C
				step := dt * float64(w.stride)
				for _, amp := range []int{0, 8} {
					for _, rho := range []float64{math.Inf(1), 2 / (float64(w.stride*w.data.C) * dt)} {
						opts := dmd.Options{DT: step, UseSVHT: true, AmplitudeWindow: amp, Engine: eng, Ws: ws}
						name := fmt.Sprintf("%d×%d %s win=%d ρ=%g", p, w.data.C, w.name, amp, rho)
						want, err := svdOfXComputeSlow(w.data, opts, rho)
						if err != nil {
							t.Fatal(err)
						}
						got, err := dmd.ComputeSlow(w.data, opts, rho)
						if err != nil {
							t.Fatal(err)
						}
						compareFits(t, name, got, want, !rSpace)
					}
				}
			}
		}
	}
}

// TestRSpaceWindowFitDegenerate: an all-zero window and one with a
// duplicated column stay finite and keep the reference's mode count on
// both routes.
func TestRSpaceWindowFitDegenerate(t *testing.T) {
	const dt = 20.0
	for _, p := range []int{200, 48, 8} {
		for _, cols := range []int{10, 20} {
			zero := mat.NewDense(p, cols)
			dup := bench.SCLogData(p, cols, 7)
			for i := 0; i < p; i++ {
				dup.Set(i, 5, dup.At(i, 4))
			}
			for _, c := range []struct {
				name string
				data *mat.Dense
			}{{"zero", zero}, {"duplicated column", dup}} {
				opts := dmd.Options{DT: dt, UseSVHT: true}
				name := fmt.Sprintf("%d×%d %s", p, cols, c.name)
				want, err := svdOfXComputeSlow(c.data, opts, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				got, err := dmd.ComputeSlow(c.data, opts, math.Inf(1))
				if err != nil {
					t.Fatal(err)
				}
				checkFinite(t, name, got)
				if got.Rank != want.Rank || len(got.Modes) != len(want.Modes) {
					t.Fatalf("%s: rank %d with %d modes, reference rank %d with %d", name, got.Rank, len(got.Modes), want.Rank, len(want.Modes))
				}
			}
		}
	}
}
