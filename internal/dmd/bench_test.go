package dmd_test

import (
	"fmt"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
)

// BenchmarkWindowDMD times one mrDMD window fit (ComputeSlow with the
// subtree's ρ = 2 cycles per window) on SC-Log windows at the workload
// heights: Theta's P=4392 and the served P=200 and P=48 tenants. The
// workspace is warmed first, so allocs/op counts only the returned modes
// and the fit's O(r²) bookkeeping.
func BenchmarkWindowDMD(b *testing.B) {
	const dt = 20.0
	shapes := []struct{ p, t int }{
		{4392, 10}, {4392, 16}, {4392, 20}, {4392, 23},
		{200, 10}, {200, 20},
		{48, 10}, {48, 20},
	}
	for _, sh := range shapes {
		b.Run(fmt.Sprintf("%dx%d", sh.p, sh.t), func(b *testing.B) {
			data := bench.SCLogData(sh.p, sh.t, 1)
			ws := compute.NewWorkspace()
			opts := dmd.Options{DT: dt, UseSVHT: true, Ws: ws}
			rho := 2 / (float64(sh.t) * dt)
			if _, err := dmd.ComputeSlow(data, opts, rho); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dmd.ComputeSlow(data, opts, rho); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
