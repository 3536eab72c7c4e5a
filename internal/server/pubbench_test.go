package server

import (
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/mat"
)

func BenchmarkPublishLocked(b *testing.B) {
	data := bench.SCLogData(200, 4000, 1)
	t, err := newTenant("b", TenantOptions{DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8, InitialCols: 2000}, 0, 256)
	if err != nil {
		b.Fatal(err)
	}
	var batches []*mat.Dense
	batches = append(batches, data.ColSlice(0, 2000))
	for c := 2000; c < 4000; c += 40 {
		batches = append(batches, data.ColSlice(c, c+40))
	}
	if _, _, _, err := t.ingest(batches, maxRestoreBody); err != nil {
		b.Fatal(err)
	}
	b.Run("view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = t.inc.View()
		}
	})
	t.mu.Lock()
	view := t.inc.View()
	st := t.statusLocked(view)
	t.mu.Unlock()
	b.Run("freeze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = newPublishedResult(1, true, view, st)
		}
	})
	// freeze plus the lazy spectrum render a first reader triggers; the
	// difference against "freeze" is the marshal kept off the ingest tail.
	b.Run("freeze+render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pub := newPublishedResult(1, true, view, st)
			_, _ = pub.SpectrumBody()
		}
	})
	b.Run("full", func(b *testing.B) {
		t.mu.Lock()
		for i := 0; i < b.N; i++ {
			_ = t.publishLocked()
		}
		t.mu.Unlock()
	})
}
