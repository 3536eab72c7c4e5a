package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/dmd"
)

// TestViewMatchesTree pins View(), Spectrum() and the other live-node
// readers against the heavyweight accessors they replace on the read
// path: the spectrum must equal Tree().Spectrum() point for point, the
// counters must match the Tree methods, NumModes, MaxLevel,
// ModeMagnitudes and ReadingLevels must equal theirs bit for bit, and the
// grid error must equal evaluating the full-resolution reconstruction at
// the sampled columns — View is a cheaper assembly of the same values,
// not an approximation (beyond the grid restriction, which is exact on
// the grid).
func TestViewMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := multiscale(rng, 16, 768, 1, 0.1)

	inc := NewIncremental(defaultOpts())
	bands := []FreqBand{FullBand(), {Lo: 0, Hi: 1e-3}}
	readers := func(stage string, tree *Tree) {
		t.Helper()
		if n, l := inc.NumModes(), inc.MaxLevel(); n != tree.NumModes() || l != tree.MaxLevel() {
			t.Fatalf("%s: NumModes %d MaxLevel %d vs tree %d/%d", stage, n, l, tree.NumModes(), tree.MaxLevel())
		}
		for _, b := range bands {
			if !sameFloatBits(inc.ModeMagnitudes(b), tree.ModeMagnitudes(b)) {
				t.Fatalf("%s: ModeMagnitudes%v differ from the tree's", stage, b)
			}
			if !sameFloatBits(inc.ReadingLevels(b), tree.ReadingLevels(b)) {
				t.Fatalf("%s: ReadingLevels%v differ from the tree's", stage, b)
			}
		}
	}
	readers("before InitialFit", inc.Tree())
	if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		v := inc.View()
		tree := inc.Tree()
		readers(stage, tree)
		if v.Steps != tree.T || v.Sensors != tree.P {
			t.Fatalf("%s: view %dx%d vs tree %dx%d", stage, v.Sensors, v.Steps, tree.P, tree.T)
		}
		requireSpectrumMatchesTree(t, stage, inc)
		// Reference grid error: the full-resolution reconstruction and
		// raw data compared at the sampled columns only.
		stride := tree.Nodes[0].Stride
		recon := tree.Reconstruct()
		raw := inc.Raw()
		var s float64
		n := 0
		for c := 0; c < tree.T; c += stride {
			n++
			for i := 0; i < tree.P; i++ {
				d := raw.At(i, c) - recon.At(i, c)
				s += d * d
			}
		}
		wantErr := math.Sqrt(s)
		if v.GridCols != n {
			t.Fatalf("%s: grid cols %d want %d", stage, v.GridCols, n)
		}
		if d := math.Abs(v.GridError - wantErr); d > 1e-9*(1+wantErr) {
			t.Fatalf("%s: grid error %v vs reference %v", stage, v.GridError, wantErr)
		}
	}
	check("after InitialFit")
	for c := 512; c < 768; c += 64 {
		if _, err := inc.PartialFit(data.ColSlice(c, c+64)); err != nil {
			t.Fatal(err)
		}
	}
	check("after PartialFits")
	v := inc.View()
	if v.Updates != inc.Updates() || v.Updates != 4 {
		t.Fatalf("updates %d (inc says %d) want 4", v.Updates, inc.Updates())
	}
	if v.LastDrift != inc.DriftLog()[len(inc.DriftLog())-1] {
		t.Fatalf("last drift %v vs drift log", v.LastDrift)
	}
}

// requireSpectrumMatchesTree holds View().Spectrum and Spectrum() to
// Tree().Spectrum() — every point in order, floats bit for bit and
// level — and View's NumModes, MaxLevel and Nodes, plus the NumModes and
// MaxLevel methods, to the Tree's.
func requireSpectrumMatchesTree(t *testing.T, stage string, inc *Incremental) {
	t.Helper()
	v := inc.View()
	tree := inc.Tree()
	if v.Nodes != len(tree.Nodes) || v.NumModes != tree.NumModes() || v.MaxLevel != tree.MaxLevel() {
		t.Fatalf("%s: view counts nodes=%d modes=%d levels=%d vs tree %d/%d/%d",
			stage, v.Nodes, v.NumModes, v.MaxLevel, len(tree.Nodes), tree.NumModes(), tree.MaxLevel())
	}
	if n, l := inc.NumModes(), inc.MaxLevel(); n != tree.NumModes() || l != tree.MaxLevel() {
		t.Fatalf("%s: NumModes %d MaxLevel %d vs tree %d/%d", stage, n, l, tree.NumModes(), tree.MaxLevel())
	}
	want := tree.Spectrum()
	for _, got := range []struct {
		name string
		pts  []dmd.SpectrumPoint
	}{{"View", v.Spectrum}, {"Spectrum", inc.Spectrum()}} {
		if len(got.pts) != len(want) {
			t.Fatalf("%s: %d %s points vs %d in the tree", stage, len(got.pts), got.name, len(want))
		}
		for i, w := range want {
			g := got.pts[i]
			if g.Level != w.Level || !sameFloatBits([]float64{g.Freq, g.Power, g.Amp, g.Grow}, []float64{w.Freq, w.Power, w.Amp, w.Grow}) {
				t.Fatalf("%s: %s point %d: %+v vs tree %+v", stage, got.name, i, g, w)
			}
		}
	}
}

// TestFrozenSpectrumMatchesTree holds the frozen segment spectrum to the
// tree through every path that replaces segments or appends one: a drift
// recompute, cold-tier demotion, a rejected batch, AddSensors, and a
// snapshot round trip with further PartialFits.
func TestFrozenSpectrumMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data, _ := multiscale(rng, 20, 768, 1, 0.1)
	const p0 = 16
	opts := defaultOpts()
	opts.DriftThreshold = 1e-9
	opts.ColdHorizon = 64
	inc := NewIncremental(opts)
	if err := inc.InitialFit(data.RowSlice(0, p0).ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	requireSpectrumMatchesTree(t, "InitialFit", inc)

	for c := 512; c < 640; c += 64 {
		if _, err := inc.PartialFit(data.RowSlice(0, p0).ColSlice(c, c+64)); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Recomputes() == 0 || inc.MemStats().ColdSteps == 0 {
		t.Fatalf("stream ran %d recomputes and demoted %d steps; the test needs both", inc.Recomputes(), inc.MemStats().ColdSteps)
	}
	requireSpectrumMatchesTree(t, "drift recompute and demotion", inc)

	bad := data.RowSlice(0, p0).ColSlice(640, 704)
	bad.Set(3, 5, math.NaN())
	if _, err := inc.PartialFit(bad); err == nil {
		t.Fatal("PartialFit accepted a NaN batch")
	}
	requireSpectrumMatchesTree(t, "rejected NaN batch", inc)

	if err := inc.AddSensors(data.RowSlice(p0, data.R).ColSlice(0, 640)); err != nil {
		t.Fatal(err)
	}
	requireSpectrumMatchesTree(t, "AddSensors", inc)

	var buf bytes.Buffer
	if err := inc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeIncremental(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireSpectrumMatchesTree(t, "decoded", dec)
	for c := 640; c < 768; c += 64 {
		if _, err := dec.PartialFit(data.ColSlice(c, c+64)); err != nil {
			t.Fatal(err)
		}
	}
	requireSpectrumMatchesTree(t, "PartialFits after decode", dec)
}

// TestSpectrumReadAllocs: Spectrum() allocates exactly its result, and
// View() allocates its spectrum plus what the grid error allocates — no
// node list or per-node walk.
func TestSpectrumReadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := multiscale(rng, 16, 768, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	for c := 512; c < 768; c += 64 {
		if _, err := inc.PartialFit(data.ColSlice(c, c+64)); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, func() { _ = inc.Spectrum() }); got != 1 {
		t.Fatalf("Spectrum() made %v allocations, want 1 (its result)", got)
	}
	grid := testing.AllocsPerRun(20, func() {
		inc.mu.Lock()
		inc.gridErrorLocked()
		inc.mu.Unlock()
	})
	if got := testing.AllocsPerRun(20, func() { _ = inc.View() }); got != grid+1 {
		t.Fatalf("View() made %v allocations, want %v (the spectrum and the grid error's %v)", got, grid+1, grid)
	}
}

// sameFloatBits reports whether a and b hold the same float64 bit
// patterns (NaN included).
func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestViewUnseeded: a View of an unfitted analyzer is the zero summary,
// not a panic — the server publishes pre-seed states too.
func TestViewUnseeded(t *testing.T) {
	inc := NewIncremental(defaultOpts())
	v := inc.View()
	if v.Steps != 0 || v.NumModes != 0 || len(v.Spectrum) != 0 || v.GridError != 0 {
		t.Fatalf("unseeded view: %+v", v)
	}
	if s := inc.Spectrum(); s != nil {
		t.Fatalf("unseeded spectrum: %+v", s)
	}
}
