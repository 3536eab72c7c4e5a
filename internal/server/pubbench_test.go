package server

import (
	"sync/atomic"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/mat"
)

func BenchmarkPublishLocked(b *testing.B) {
	data := bench.SCLogData(200, 6000, 1)
	t, err := newTenant("b", TenantOptions{DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8, InitialCols: 2000}, 0, 256)
	if err != nil {
		b.Fatal(err)
	}
	// Every version of the stream from T=2,000 to T=6,000 (one per
	// 40-column batch), for the trajectory cases.
	var versions []*PublishedResult
	stream := func(lo, hi int) {
		for c := lo; c < hi; {
			w := 40
			if c == 0 {
				w = 2000
			}
			_, _, pub, err := t.ingest([]*mat.Dense{data.ColSlice(c, c+w)}, maxRestoreBody)
			if err != nil {
				b.Fatal(err)
			}
			if pub.Seeded {
				versions = append(versions, pub)
			}
			c += w
		}
	}
	stream(0, 4000)
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
			_ = newPublishedResult(1, true, view, st, new(atomic.Pointer[spectrumFrags]))
		}
	})
	// freeze plus the lazy spectrum render a first reader triggers; the
	// difference against "freeze" is the marshal kept off the ingest tail.
	b.Run("freeze+render", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pub := newPublishedResult(1, true, view, st, new(atomic.Pointer[spectrumFrags]))
			_, _ = pub.SpectrumBody()
		}
	})
	b.Run("tag", func(b *testing.B) {
		body, _ := newPublishedResult(1, true, view, st, new(atomic.Pointer[spectrumFrags])).SpectrumBody()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			_ = strongETag(body)
		}
	})
	b.Run("full", func(b *testing.B) {
		t.mu.Lock()
		for i := 0; i < b.N; i++ {
			_ = t.publishLocked()
		}
		t.mu.Unlock()
	})

	// Render and tag every version in stream order, as a reader that
	// fetches each version does: "reuse" keeps the previous render's
	// fragment dictionary across versions, "scratch" renders each from
	// nothing. Reported per version.
	stream(4000, data.C)
	trajectory := func(b *testing.B, reuse bool) {
		var bytes int
		for i := 0; i < b.N; i++ {
			frags := new(atomic.Pointer[spectrumFrags])
			for _, v := range versions {
				if !reuse {
					frags = new(atomic.Pointer[spectrumFrags])
				}
				body, _ := newPublishedResult(v.Version, true, v.View, v.Status, frags).SpectrumBody()
				bytes += len(body)
			}
		}
		n := float64(b.N * len(versions))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/version")
		b.ReportMetric(float64(bytes)/n, "B/version")
	}
	b.Run("trajectory/reuse", func(b *testing.B) { trajectory(b, true) })
	b.Run("trajectory/scratch", func(b *testing.B) { trajectory(b, false) })
}
