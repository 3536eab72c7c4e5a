package core_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// TestPartialFitAllocBoundedAcrossChunks streams a P=200 analyzer with no
// cold tier from T=512 past T=5,400, across the P·T element counts 2¹⁸,
// 2¹⁹ and 2²⁰ where a power-of-two history buffer would have moved to the
// next size class and copied everything absorbed so far. The chunked
// history opens one P×TieredChunkCols chunk instead, so no PartialFit
// may allocate more than allocBound·P·(TieredChunkCols+Δ)·8 bytes.
func TestPartialFitAllocBoundedAcrossChunks(t *testing.T) {
	const (
		p, initial, batch, end = 200, 512, 40, 5440
		// allocBound covers one new chunk (P×256), the batch's own
		// scratch (a few P×Δ windows and residuals) and the level-1
		// grid's pooled growth; a doubling copy of the history at
		// T ≈ 1,311, 2,621 or 5,243 costs 4–16 MB, 9–35× the unit.
		allocBound = 3
	)
	data := bench.SCLogData(p, end, 1)
	inc := core.NewIncremental(core.Options{
		DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, BlockColumns: 8,
		DriftWindow: 64, AmplitudeWindow: 64,
	})
	if err := inc.InitialFit(data.ColSlice(0, initial)); err != nil {
		t.Fatal(err)
	}
	limit := uint64(allocBound * p * (mat.TieredChunkCols + batch) * 8)
	var worst uint64
	worstT := 0
	for pos := initial; pos+batch <= end; pos += batch {
		b := data.ColSlice(pos, pos+batch)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := inc.PartialFit(b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got > worst {
			worst, worstT = got, pos+batch
		}
	}
	t.Logf("worst PartialFit allocated %d bytes (at T=%d), limit %d", worst, worstT, limit)
	if worst > limit {
		t.Fatalf("a PartialFit reaching T=%d allocated %d bytes, over %d·P·(%d+Δ)·8 = %d",
			worstT, worst, allocBound, mat.TieredChunkCols, limit)
	}
}

// TestPartialFitRejectsNonFiniteAcrossChunk: a batch holding one NaN or
// ±Inf in a column past a chunk boundary — so the history has opened a
// chunk for it — is refused, and the analyzer is left exactly as it was:
// the same column count, hot-tier bytes and snapshot bytes.
func TestPartialFitRejectsNonFiniteAcrossChunk(t *testing.T) {
	const p, initial, batch = 16, mat.TieredChunkCols - 6, 20
	data := bench.SCLogData(p, initial+2*batch, 2)
	inc := core.NewIncremental(core.Options{DT: 20, MaxLevels: 3, MaxCycles: 2})
	if err := inc.InitialFit(data.ColSlice(0, initial)); err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		var buf bytes.Buffer
		if err := inc.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before, mem := snapshot(), inc.MemStats()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := data.ColSlice(initial, initial+batch).Clone()
		b.Set(p/2, 10, bad) // global column initial+10, past the boundary
		if _, err := inc.PartialFit(b); err == nil {
			t.Fatalf("batch with %v accepted", bad)
		}
		if got := inc.MemStats(); got != mem {
			t.Fatalf("batch with %v changed the history accounting: %+v, was %+v", bad, got, mem)
		}
		if !bytes.Equal(snapshot(), before) {
			t.Fatalf("batch with %v changed the snapshot bytes", bad)
		}
	}
	if _, err := inc.PartialFit(data.ColSlice(initial, initial+batch)); err != nil {
		t.Fatal(err)
	}
	if inc.Cols() != initial+batch {
		t.Fatalf("Cols() = %d after the clean batch, want %d", inc.Cols(), initial+batch)
	}
}
