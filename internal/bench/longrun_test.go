package bench

import (
	"runtime"
	"testing"

	"imrdmd/internal/core"
)

// TestLongrunFlatHorizon pins the flat-horizon property of DESIGN.md §10
// with deterministic measures only: one analyzer in the windowed + cold
// tier configuration is streamed through T ≈ 2048, 8192 and 16384, and at
// each probe the per-batch allocation count and bytes, and the resident
// history bytes, are read. Wall time is not asserted; per-batch latency
// at T≈16k is timed by cmd/imrdmd-bench's longrun_tiered workload.
func TestLongrunFlatHorizon(t *testing.T) {
	// 48 sensors put the level-1 rank cap at 48, and the 512-column
	// initial fit sets the grid stride to 32, so the streaming SVD
	// saturates its rank well before the first probe and every probe
	// sees the steady state rather than the ramp.
	const (
		sensors  = 48
		initial  = 512
		batch    = 40
		warm     = 5
		measured = 21
		// flatBound is DESIGN.md §10's acceptance ratio between the
		// last and the first probe.
		flatBound = 1.15
		// f32 cold columns cost 4 bytes per reading; a hot f64 history
		// would cost 8.
		maxBytesPerReading = 4.5
	)
	probes := []int{2048, 8192, 16384}

	// Each probe's warm and measured batches push the stream past the
	// probe point, and batch alignment overshoots by up to a batch per
	// probe; size the data for the worst case.
	episode := (warm + measured) * batch
	data := SCLogData(sensors, probes[len(probes)-1]+episode+(len(probes)+1)*batch, 1)
	inc := core.NewIncremental(core.Options{
		DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true,
		Parallel: true, BlockColumns: 8,
		DriftWindow: 64, AmplitudeWindow: 64, ColdHorizon: 512,
	})
	if err := inc.InitialFit(data.ColSlice(0, initial)); err != nil {
		t.Fatal(err)
	}
	pos := initial
	step := func() {
		t.Helper()
		if _, err := inc.PartialFit(data.ColSlice(pos, pos+batch)); err != nil {
			t.Fatal(err)
		}
		pos += batch
	}

	type probeStat struct {
		mem           core.MemStats
		allocs, bytes float64
	}
	stats := make([]probeStat, len(probes))
	for i, probe := range probes {
		for pos < probe {
			step()
		}
		// Resident bytes at the probe, before the episode moves on.
		stats[i].mem = inc.MemStats()
		for range warm {
			step()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range measured {
			step()
		}
		runtime.ReadMemStats(&m1)
		stats[i].allocs = float64(m1.Mallocs-m0.Mallocs) / measured
		stats[i].bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / measured
		st := stats[i]
		t.Logf("T=%d: %.0f allocs/batch, %.0f B/batch, resident %d B (%d of %d columns cold)",
			st.mem.Cols, st.allocs, st.bytes, st.mem.HotBytes+st.mem.ColdBytes, st.mem.ColdCols, st.mem.Cols)
	}

	first, last := stats[0], stats[len(stats)-1]
	if r := last.allocs / first.allocs; r > flatBound {
		t.Errorf("allocs/batch grew %.3f× from T=%d to T=%d (bound %.2f×)", r, first.mem.Cols, last.mem.Cols, flatBound)
	}
	if r := last.bytes / first.bytes; r > flatBound {
		t.Errorf("bytes/batch grew %.3f× from T=%d to T=%d (bound %.2f×)", r, first.mem.Cols, last.mem.Cols, flatBound)
	}
	for i := 1; i < len(stats); i++ {
		a, b := stats[i-1].mem, stats[i].mem
		grown := float64(b.HotBytes + b.ColdBytes - a.HotBytes - a.ColdBytes)
		perReading := grown / float64((b.Cols-a.Cols)*sensors)
		t.Logf("T=%d→%d: %.3f resident bytes per absorbed reading", a.Cols, b.Cols, perReading)
		if perReading > maxBytesPerReading {
			t.Errorf("T=%d→%d: %.3f resident bytes per absorbed reading, want ≤ %.1f (f32 cold tier)",
				a.Cols, b.Cols, perReading, maxBytesPerReading)
		}
	}
}
