package dmd_test

import (
	"runtime"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
)

// TestWindowDMDAllocBound pins the window DMD's heap traffic at Theta's
// P: with a warmed workspace, one Compute call allocates the returned
// modes' Φ columns (16·P bytes each) plus at most 64 KiB of O(r²)
// bookkeeping. The SVD factors, B = Y·V·Σ⁻¹, the Grams and the Φ planes
// are all workspace storage, so any P-sized heap intermediate breaks the
// bound.
func TestWindowDMDAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("Theta-sized windows")
	}
	const p = 4392
	eng := compute.NewEngine(1)
	defer eng.Close()
	ws := compute.NewWorkspace()
	for _, cols := range []int{40, 20, 10} {
		data := bench.SCLogData(p, cols, 1)
		opts := dmd.Options{DT: 20, UseSVHT: true, Engine: eng, Ws: ws}
		modes := 0
		fit := func() {
			dec, err := dmd.Compute(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			modes = len(dec.Modes)
		}
		for i := 0; i < 3; i++ {
			fit() // warm the workspace's size classes
		}
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fit()
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / runs
		limit := uint64(16*p*modes + 64<<10)
		t.Logf("%d×%d: %d modes, %d B/call (%d B beyond the modes)", p, cols, modes, perCall, int64(perCall)-int64(16*p*modes))
		if perCall > limit {
			t.Fatalf("%d×%d: %d B per Compute, bound %d B (16·P per mode for %d modes + 64 KiB)",
				p, cols, perCall, limit, modes)
		}
	}
}
