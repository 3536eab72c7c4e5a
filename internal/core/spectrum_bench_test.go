package core_test

import (
	"fmt"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/dmd"
)

var spectrumSink []dmd.SpectrumPoint

// BenchmarkSpectrum times one Spectrum() read of the P=48 SC-Log stream
// with the flat-horizon windows and the cold tier (512 seed columns, then
// 40-column PartialFits), at two horizons of the same stream. The later
// horizon holds about four times the nodes and points of the earlier
// one, so ns/op follows the points a read copies; "points" and "nodes"
// report both sizes.
func BenchmarkSpectrum(b *testing.B) {
	const p, seed, batch = 48, 512, 40
	horizons := []int{4392, 16392}
	data := bench.SCLogData(p, horizons[len(horizons)-1], 1)
	inc := core.NewIncremental(core.Options{
		DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8,
		DriftWindow: 64, AmplitudeWindow: 64, ColdHorizon: 512,
	})
	if err := inc.InitialFit(data.ColSlice(0, seed)); err != nil {
		b.Fatal(err)
	}
	c := seed
	for _, end := range horizons {
		for ; c < end; c += batch {
			if _, err := inc.PartialFit(data.ColSlice(c, c+batch)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("T=%d", end), func(b *testing.B) {
			v := inc.View()
			b.ReportAllocs()
			for b.Loop() {
				spectrumSink = inc.Spectrum()
			}
			b.ReportMetric(float64(len(v.Spectrum)), "points")
			b.ReportMetric(float64(v.Nodes), "nodes")
		})
	}
}
