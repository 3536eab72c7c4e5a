package imrdmd

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// snapshotSeries synthesizes a deterministic multi-scale signal (the
// quickstart shape) wide enough to stream in several partial fits.
func snapshotSeries(p, t int) *Series {
	rng := rand.New(rand.NewSource(17))
	s := NewSeries(p, t)
	for i := 0; i < p; i++ {
		phase := float64(i) * 0.37
		row := s.m.Row(i)
		for k := 0; k < t; k++ {
			x := float64(k)
			row[k] = 50 + 6*math.Sin(x/200+phase) + 2*math.Sin(x/13+phase) + 0.3*rng.NormFloat64()
		}
	}
	return s
}

// slice returns columns [lo, hi) as a Series.
func (s *Series) slice(lo, hi int) *Series {
	return &Series{m: s.m.ColSlice(lo, hi)}
}

// TestPublicSnapshotRestore: the public Snapshot/Restore round trip must
// continue streaming exactly like the uninterrupted analyzer.
func TestPublicSnapshotRestore(t *testing.T) {
	data := snapshotSeries(24, 1024)
	opts := Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true, BlockColumns: 8}

	ref, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.InitialFit(data.slice(0, 512)); err != nil {
		t.Fatal(err)
	}
	interrupted, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := interrupted.InitialFit(data.slice(0, 512)); err != nil {
		t.Fatal(err)
	}
	for c := 512; c < 768; c += 64 {
		for _, a := range []*Analyzer{ref, interrupted} {
			if _, err := a.PartialFit(data.slice(c, c+64)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var buf bytes.Buffer
	if err := interrupted.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != ref.Steps() {
		t.Fatalf("restored Steps = %d want %d", restored.Steps(), ref.Steps())
	}
	// Restored options come back default-filled (DT and windows
	// resolved); every knob that was set must survive.
	ro := restored.inc.Options()
	if ro.DT != 1 || ro.MaxLevels != 4 || ro.MaxCycles != 2 || !ro.UseSVHT ||
		ro.BlockColumns != 8 {
		t.Fatalf("restored options lost knobs: %+v", ro)
	}

	for c := 768; c < 1024; c += 64 {
		for _, a := range []*Analyzer{ref, restored} {
			if _, err := a.PartialFit(data.slice(c, c+64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	gs, ws := restored.Spectrum(), ref.Spectrum()
	if len(gs) != len(ws) {
		t.Fatalf("spectrum %d points vs %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("spectrum point %d: %+v vs %+v", i, gs[i], ws[i])
		}
	}
	ge, we := restored.ReconstructionError(), ref.ReconstructionError()
	if math.Abs(ge-we) > 1e-12*(1+we) {
		t.Fatalf("reconstruction error %v vs %v", ge, we)
	}
}

// TestPublicRestoreErrors: garbage input must fail with the imrdmd error
// prefix, never panic.
func TestPublicRestoreErrors(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("definitely not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Restore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err == nil {
		t.Fatal("snapshot of unfitted analyzer accepted")
	}
}
