// Package viz renders the paper's visual artifacts without a browser
// runtime: Turbo-colored rack layout views (Figs. 2, 4, 6), line plots of
// actual-vs-reconstructed series (Fig. 3), spectrum scatter plots
// (Figs. 5, 7), embedding panels (Fig. 8), and a standalone HTML report
// stitching them together — the Go equivalent of the paper's D3-in-
// Jupyter integration.
package viz

import (
	"fmt"
	"math"
)

// turboAnchors samples Google's Turbo colormap at 11 evenly spaced
// positions; Turbo interpolates linearly between them. The anchor values
// are the colormap's published RGB samples (dark blue → cyan → green →
// yellow → orange → dark red).
var turboAnchors = [][3]uint8{
	{48, 18, 59},   // 0.0  #30123b
	{68, 88, 203},  // 0.1  #4458cb
	{62, 155, 254}, // 0.2  #3e9bfe
	{24, 214, 203}, // 0.3  #18d6cb
	{70, 248, 132}, // 0.4  #46f884
	{162, 252, 60}, // 0.5  #a2fc3c
	{225, 221, 55}, // 0.6  #e1dd37
	{254, 161, 48}, // 0.7  #fea130
	{239, 90, 17},  // 0.8  #ef5a11
	{194, 36, 3},   // 0.9  #c22403
	{122, 4, 3},    // 1.0  #7a0403
}

// Turbo evaluates the Turbo colormap at t ∈ [0,1] (clamped), returning
// 8-bit RGB.
func Turbo(t float64) (r, g, b uint8) {
	if t < 0 || math.IsNaN(t) {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	pos := t * float64(len(turboAnchors)-1)
	i := int(pos)
	if i >= len(turboAnchors)-1 {
		a := turboAnchors[len(turboAnchors)-1]
		return a[0], a[1], a[2]
	}
	f := pos - float64(i)
	a, c := turboAnchors[i], turboAnchors[i+1]
	lerp := func(x, y uint8) uint8 {
		return uint8(float64(x) + f*(float64(y)-float64(x)) + 0.5)
	}
	return lerp(a[0], c[0]), lerp(a[1], c[1]), lerp(a[2], c[2])
}

// ZScoreColor maps a z-score in [-zmax, zmax] onto the Turbo scale the
// way the paper's figures do: blue hues for negative (cold / idle),
// green near zero (baseline), red hues for positive (hot).
func ZScoreColor(z, zmax float64) string {
	if zmax <= 0 {
		zmax = 5
	}
	t := (z + zmax) / (2 * zmax)
	r, g, b := Turbo(t)
	return fmt.Sprintf("#%02x%02x%02x", r, g, b)
}

// niceTicks returns ~n round tick values covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	if hi <= lo {
		hi = lo + 1
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for span/step > float64(n)*2 {
		step *= 2
	}
	for span/step < float64(n)/2 {
		step /= 2
	}
	start := math.Ceil(lo/step) * step
	var ticks []float64
	for v := start; v <= hi+1e-12; v += step {
		ticks = append(ticks, v)
	}
	return ticks
}
