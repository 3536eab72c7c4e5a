package imrdmd

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"imrdmd/internal/baseline"
)

// syntheticTemps builds a P×T temperature-like series: baseline sensors
// around 50 °C, `hot` sensors elevated, with slow and fast oscillations.
func syntheticTemps(seed int64, p, t int, hot []int) *Series {
	rng := rand.New(rand.NewSource(seed))
	s := NewSeries(p, t)
	hotSet := map[int]bool{}
	for _, h := range hot {
		hotSet[h] = true
	}
	for i := 0; i < p; i++ {
		base := 50 + rng.NormFloat64()
		if hotSet[i] {
			base += 15
		}
		ph := rng.Float64() * 2 * math.Pi
		for k := 0; k < t; k++ {
			tt := float64(k)
			v := base +
				2*math.Sin(2*math.Pi*tt/float64(t)+ph) +
				0.8*math.Sin(2*math.Pi*tt/64) +
				0.3*rng.NormFloat64()
			s.Set(i, k, v)
		}
	}
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries(2, 3)
	s.Set(1, 2, 7)
	if s.At(1, 2) != 7 || s.Sensors() != 2 || s.Steps() != 3 {
		t.Fatal("basic accessors broken")
	}
	rows, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.At(1, 0) != 3 {
		t.Fatal("FromRows wrong")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows accepted")
	}
	sl := rows.Slice(1, 2)
	if sl.Steps() != 1 || sl.At(0, 0) != 2 {
		t.Fatal("Slice wrong")
	}
	app := rows.Append(rows)
	if app.Steps() != 4 {
		t.Fatal("Append wrong")
	}
}

// TestInitialFitZeroSensors: a series without sensors is rejected with
// an error instead of panicking inside the decomposition.
func TestInitialFitZeroSensors(t *testing.T) {
	a, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InitialFit(NewSeries(0, 64)); err == nil {
		t.Fatal("want an error for a zero-sensor series")
	}
}

func TestSeriesCSVRoundTrip(t *testing.T) {
	s := syntheticTemps(1, 5, 20, nil)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSeriesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Sub(s).FrobNorm(); d != 0 {
		t.Fatalf("round trip deviates by %g", d)
	}
}

func TestAnalyzerEndToEnd(t *testing.T) {
	hot := []int{3, 17}
	s := syntheticTemps(2, 24, 768, hot)
	a := mustNew(t, Options{DT: 1, MaxLevels: 5, MaxCycles: 2, UseSVHT: true})
	if err := a.InitialFit(s.Slice(0, 512)); err != nil {
		t.Fatal(err)
	}
	stats, err := a.PartialFit(s.Slice(512, 768))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NewColumns != 256 {
		t.Fatalf("NewColumns = %d", stats.NewColumns)
	}
	if a.Steps() != 768 || a.Updates() != 1 {
		t.Fatalf("Steps=%d Updates=%d", a.Steps(), a.Updates())
	}

	// Reconstruction quality.
	recon := a.Reconstruction()
	if recon.Sensors() != 24 || recon.Steps() != 768 {
		t.Fatal("reconstruction shape wrong")
	}
	rel := a.ReconstructionError() / s.FrobNorm()
	if rel > 0.05 {
		t.Fatalf("relative reconstruction error %g", rel)
	}

	// Spectrum sanity.
	spec := a.Spectrum()
	if len(spec) == 0 || a.NumModes() != len(spec) {
		t.Fatal("spectrum empty or inconsistent")
	}
	for _, p := range spec {
		if p.Freq < 0 || p.Power < 0 {
			t.Fatal("negative spectrum quantities")
		}
	}
	if a.Levels() < 3 {
		t.Fatalf("Levels = %d", a.Levels())
	}

	// Z-scores flag the hot sensors.
	base := BaselineByMeanRange(s, 46, 57)
	if len(base) < 15 {
		t.Fatalf("baseline too small: %d", len(base))
	}
	z, err := a.ZScores(base, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hot {
		if z[h] < 1 {
			t.Fatalf("hot sensor %d has z=%g, want clearly elevated", h, z[h])
		}
	}
	if ClassifyZ(0) != "near-baseline" || ClassifyZ(3) != "hot" {
		t.Fatal("ClassifyZ bands wrong")
	}
	if len(a.DriftLog()) != 1 {
		t.Fatal("drift log missing")
	}
}

func TestAnalyzerDriftRecompute(t *testing.T) {
	s := syntheticTemps(3, 8, 512, nil)
	a := mustNew(t, Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true,
		DriftThreshold: 1e-9})
	if err := a.InitialFit(s.Slice(0, 256)); err != nil {
		t.Fatal(err)
	}
	stats, err := a.PartialFit(s.Slice(256, 512))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Recomputed {
		t.Fatal("tiny threshold should force recompute")
	}
}

func TestRackViewFromAnalyzer(t *testing.T) {
	s := syntheticTemps(4, 64, 256, []int{5})
	a := mustNew(t, Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true})
	if err := a.InitialFit(s); err != nil {
		t.Fatal(err)
	}
	base := BaselineByMeanRange(s, 46, 57)
	z, err := a.ZScores(base, 0, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	// 64 nodes: 1 row × 4 racks × 4 cabinets × 4 slots.
	err = RackView(&buf, "mini 1 1 row0-0:0-3 2 c:0-3 1 s:0-3 b:0 n:0",
		"unit-test rack", z, []int{5}, []int{6})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "<svg") || !strings.Contains(out, "unit-test rack") {
		t.Fatal("rack view SVG malformed")
	}
}

func TestRackViewBadSpec(t *testing.T) {
	var buf bytes.Buffer
	if err := RackView(&buf, "not a spec :::", "t", nil, nil, nil); err == nil {
		t.Fatal("bad layout spec accepted")
	}
}

// TestAnalyzerMisuseReturnsErrors: every public method on an unfitted
// analyzer, a nil Series handed to the fitting calls, and baseline
// indices outside the sensor range must return empty results or an error
// — never panic.
func TestAnalyzerMisuseReturnsErrors(t *testing.T) {
	fitted := mustNew(t, Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := fitted.InitialFit(syntheticTemps(5, 8, 256, nil)); err != nil {
		t.Fatal(err)
	}
	wantErr := func(err error) error {
		if err == nil {
			return errors.New("no error")
		}
		return nil
	}
	wantEmpty := func(n int) error {
		if n != 0 {
			return fmt.Errorf("%d results, want none", n)
		}
		return nil
	}
	cases := []struct {
		name string
		call func(a *Analyzer) error
	}{
		{"Spectrum", func(a *Analyzer) error { return wantEmpty(len(a.Spectrum())) }},
		{"NumModes", func(a *Analyzer) error { return wantEmpty(a.NumModes()) }},
		{"Levels", func(a *Analyzer) error { return wantEmpty(a.Levels()) }},
		{"Reconstruction", func(a *Analyzer) error {
			r := a.Reconstruction()
			return wantEmpty(r.Sensors() * r.Steps())
		}},
		{"StabilizedReconstruction", func(a *Analyzer) error {
			r := a.StabilizedReconstruction()
			return wantEmpty(r.Sensors() * r.Steps())
		}},
		{"ReconstructionError", func(a *Analyzer) error {
			if e := a.ReconstructionError(); e != 0 {
				return fmt.Errorf("error %v, want 0", e)
			}
			return nil
		}},
		{"CompressionRatio", func(a *Analyzer) error {
			if c := a.CompressionRatio(); c != 0 {
				return fmt.Errorf("ratio %v, want 0", c)
			}
			return nil
		}},
		{"ModeMagnitudes", func(a *Analyzer) error { return wantEmpty(len(a.ModeMagnitudes(0, math.Inf(1)))) }},
		{"ReadingLevels", func(a *Analyzer) error { return wantEmpty(len(a.ReadingLevels(0, math.Inf(1)))) }},
		{"ZScores", func(a *Analyzer) error {
			_, err := a.ZScores([]int{0, 1}, 0, math.Inf(1))
			if !errors.Is(err, baseline.ErrNoBaseline) {
				return fmt.Errorf("err %v, want ErrNoBaseline", err)
			}
			return nil
		}},
		{"Steps", func(a *Analyzer) error { return wantEmpty(a.Steps()) }},
		{"Updates", func(a *Analyzer) error { return wantEmpty(a.Updates()) }},
		{"Sensors", func(a *Analyzer) error { return wantEmpty(a.Sensors()) }},
		{"DriftLog", func(a *Analyzer) error { return wantEmpty(len(a.DriftLog())) }},
		{"MemStats", func(a *Analyzer) error { return wantEmpty(a.MemStats().Steps) }},
		{"Snapshot", func(a *Analyzer) error { return wantErr(a.Snapshot(io.Discard)) }},
		{"PartialFit", func(a *Analyzer) error {
			_, err := a.PartialFit(syntheticTemps(6, 8, 32, nil))
			return wantErr(err)
		}},
		{"AddSensors", func(a *Analyzer) error { return wantErr(a.AddSensors(syntheticTemps(7, 1, 256, nil))) }},
		{"InitialFit(nil)", func(a *Analyzer) error { return wantErr(a.InitialFit(nil)) }},
		{"PartialFit(nil)", func(a *Analyzer) error {
			_, err := a.PartialFit(nil)
			return wantErr(err)
		}},
		{"AddSensors(nil)", func(a *Analyzer) error { return wantErr(a.AddSensors(nil)) }},
	}
	for _, c := range cases {
		t.Run("unfitted/"+c.name, func(t *testing.T) {
			if err := c.call(mustNew(t, Options{DT: 1})); err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, name := range []string{"PartialFit(nil)", "AddSensors(nil)"} {
		for _, c := range cases {
			if c.name == name {
				if err := c.call(fitted); err != nil {
					t.Fatalf("fitted %s: %v", name, err)
				}
			}
		}
	}
	for _, idx := range [][]int{{0, 99}, {-1, 0}} {
		_, err := fitted.ZScores(idx, 0, math.Inf(1))
		if err == nil {
			t.Fatalf("ZScores(%v) on 8 sensors: no error", idx)
		}
		bad := idx[1]
		if idx[0] < 0 {
			bad = idx[0]
		}
		if !strings.Contains(err.Error(), fmt.Sprint(bad)) {
			t.Fatalf("ZScores(%v): error %q does not name index %d", idx, err, bad)
		}
	}
}
