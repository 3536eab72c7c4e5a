package core

import (
	"math"
	"math/rand"
	"testing"
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
		if v.Nodes != len(tree.Nodes) || v.NumModes != tree.NumModes() || v.MaxLevel != tree.MaxLevel() {
			t.Fatalf("%s: view counts nodes=%d modes=%d levels=%d vs tree %d/%d/%d",
				stage, v.Nodes, v.NumModes, v.MaxLevel, len(tree.Nodes), tree.NumModes(), tree.MaxLevel())
		}
		want := tree.Spectrum()
		spec := inc.Spectrum()
		if len(v.Spectrum) != len(want) || len(spec) != len(want) {
			t.Fatalf("%s: %d (View) and %d (Spectrum) spectrum points vs %d", stage, len(v.Spectrum), len(spec), len(want))
		}
		for i := range want {
			if v.Spectrum[i] != want[i] || spec[i] != want[i] {
				t.Fatalf("%s: spectrum point %d: %+v (View), %+v (Spectrum) vs %+v", stage, i, v.Spectrum[i], spec[i], want[i])
			}
		}
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
