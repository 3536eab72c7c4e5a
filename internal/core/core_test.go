package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/mat"
)

// multiscale builds a P×T signal with energy at three well-separated
// timescales plus white noise — the structure mrDMD is designed to peel
// apart. Returns the noisy data and the clean (noise-free) version.
func multiscale(rng *rand.Rand, p, t int, dt, noise float64) (data, clean *mat.Dense) {
	data = mat.NewDense(p, t)
	clean = mat.NewDense(p, t)
	dur := float64(t) * dt
	slowF := 0.5 / dur   // half a cycle over the window
	midF := 16.0 / dur   // 16 cycles
	fastF := 120.0 / dur // 120 cycles
	for i := 0; i < p; i++ {
		base := 50 + 5*rng.Float64()
		aS := 3 + rng.Float64()
		aM := 1 + 0.5*rng.Float64()
		aF := 0.5 * rng.Float64()
		phS := rng.Float64() * 2 * math.Pi
		phM := rng.Float64() * 2 * math.Pi
		phF := rng.Float64() * 2 * math.Pi
		for k := 0; k < t; k++ {
			tt := float64(k) * dt
			v := base +
				aS*math.Sin(2*math.Pi*slowF*tt+phS) +
				aM*math.Sin(2*math.Pi*midF*tt+phM) +
				aF*math.Sin(2*math.Pi*fastF*tt+phF)
			clean.Data[i*t+k] = v
			data.Data[i*t+k] = v + noise*rng.NormFloat64()
		}
	}
	return data, clean
}

func defaultOpts() Options {
	return Options{DT: 1, MaxLevels: 5, MaxCycles: 2, UseSVHT: true}
}

func TestDecomposeTreeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, _ := multiscale(rng, 12, 512, 1, 0.1)
	tree, err := Decompose(data, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	// A full binary split to 5 levels has 1+2+4+8+16 = 31 nodes.
	if len(tree.Nodes) != 31 {
		t.Fatalf("node count = %d want 31", len(tree.Nodes))
	}
	if tree.MaxLevel() != 5 {
		t.Fatalf("max level = %d want 5", tree.MaxLevel())
	}
	// Windows at each level must tile [0, T).
	byLevel := map[int]int{}
	for _, n := range tree.Nodes {
		byLevel[n.Level] += n.Window()
		if n.Start < 0 || n.End > 512 || n.Start >= n.End {
			t.Fatalf("bad window [%d,%d)", n.Start, n.End)
		}
	}
	for lvl := 1; lvl <= 5; lvl++ {
		if byLevel[lvl] != 512 {
			t.Fatalf("level %d windows cover %d columns, want 512", lvl, byLevel[lvl])
		}
	}
}

func TestDecomposeReconstructionQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, clean := multiscale(rng, 10, 512, 1, 0.2)
	tree, err := Decompose(data, Options{DT: 1, MaxLevels: 6, MaxCycles: 2, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	recon := tree.Reconstruct()
	// Q1: the reconstruction strips high-frequency noise, so it must sit
	// closer to the clean signal than to the noisy observations.
	errClean := mat.Sub(recon, clean).FrobNorm()
	errData := mat.Sub(recon, data).FrobNorm()
	if errClean >= errData {
		t.Fatalf("reconstruction is closer to the noise (%g) than to the clean signal (%g)", errData, errClean)
	}
	// And it must explain most of the signal energy. The paper's own
	// case studies run at ≈5%% relative Frobenius error.
	rel := errData / data.FrobNorm()
	if rel > 0.03 {
		t.Fatalf("relative reconstruction error %g too large", rel)
	}
}

func TestMoreLevelsReduceError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := multiscale(rng, 8, 512, 1, 0.05)
	var prev float64 = math.Inf(1)
	for _, lv := range []int{1, 3, 5} {
		tree, err := Decompose(data, Options{DT: 1, MaxLevels: lv, MaxCycles: 2, UseSVHT: true})
		if err != nil {
			t.Fatal(err)
		}
		e := tree.ReconError(data)
		if e > prev*1.05 { // allow 5% slack for mode-selection jitter
			t.Fatalf("error did not decrease with levels: %g after %g", e, prev)
		}
		prev = e
	}
}

func TestReconstructLevelsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, _ := multiscale(rng, 8, 256, 1, 0.1)
	tree, err := Decompose(data, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	full := tree.Reconstruct()
	partial := tree.ReconstructLevels(1)
	// Level-1-only reconstruction misses the finer scales, so its error
	// against the data must exceed the full tree's.
	errPartial := mat.Sub(partial, data).FrobNorm()
	errFull := mat.Sub(full, data).FrobNorm()
	if errPartial <= errFull {
		t.Fatalf("level-1-only error %g not above full-tree error %g", errPartial, errFull)
	}
	if d := mat.Sub(tree.ReconstructLevels(tree.MaxLevel()), full).FrobNorm(); d != 0 {
		t.Fatal("ReconstructLevels(max) must equal Reconstruct")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := multiscale(rng, 10, 512, 1, 0.1)
	serialOpts := defaultOpts()
	parallelOpts := defaultOpts()
	parallelOpts.Parallel = true
	st, err := Decompose(data, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Decompose(data, parallelOpts)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.Sub(st.Reconstruct(), pt.Reconstruct()).FrobNorm(); d > 1e-9*(1+data.FrobNorm()) {
		t.Fatalf("parallel and serial reconstructions differ by %g", d)
	}
	if len(st.Nodes) != len(pt.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(st.Nodes), len(pt.Nodes))
	}
}

func TestDecomposeRejectsNaN(t *testing.T) {
	data := mat.NewDense(4, 64)
	data.Set(2, 10, math.NaN())
	if _, err := Decompose(data, defaultOpts()); err == nil {
		t.Fatal("want error for NaN input")
	}
}

func TestDecomposeTooFewColumns(t *testing.T) {
	if _, err := Decompose(mat.NewDense(4, 1), defaultOpts()); err == nil {
		t.Fatal("want error for single column")
	}
}

// TestZeroSensorsRejected: a 0×T input is an error, not a panic, for
// both the batch and the incremental entry points.
func TestZeroSensorsRejected(t *testing.T) {
	data := mat.NewDense(0, 64)
	if _, err := Decompose(data, defaultOpts()); !errors.Is(err, ErrNoSensors) {
		t.Fatalf("Decompose: err = %v, want ErrNoSensors", err)
	}
	if err := NewIncremental(defaultOpts()).InitialFit(data); !errors.Is(err, ErrNoSensors) {
		t.Fatalf("InitialFit: err = %v, want ErrNoSensors", err)
	}
}

func TestSpectrumCoversScales(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data, _ := multiscale(rng, 10, 512, 1, 0.05)
	tree, err := Decompose(data, Options{DT: 1, MaxLevels: 6, MaxCycles: 2, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	pts := tree.Spectrum()
	if len(pts) == 0 {
		t.Fatal("empty spectrum")
	}
	var minF, maxF = math.Inf(1), 0.0
	for _, p := range pts {
		if p.Freq < minF {
			minF = p.Freq
		}
		if p.Freq > maxF {
			maxF = p.Freq
		}
		if p.Level < 1 || p.Level > 6 {
			t.Fatalf("bad level %d in spectrum", p.Level)
		}
	}
	// The deep levels must contribute faster frequencies than level 1 can
	// hold: max over min spread of at least the level-1 threshold ratio.
	if maxF == 0 || minF == math.Inf(1) || maxF <= minF {
		t.Fatalf("spectrum spread [%g, %g] not multiscale", minF, maxF)
	}
}

func TestModeMagnitudesDiscriminate(t *testing.T) {
	// Sensors 0..4 carry a strong oscillation, sensors 5..9 are flat.
	p, tt := 10, 256
	data := mat.NewDense(p, tt)
	for i := 0; i < p; i++ {
		for k := 0; k < tt; k++ {
			v := 10.0
			if i < 5 {
				v += 5 * math.Sin(2*math.Pi*8*float64(k)/float64(tt))
			}
			data.Data[i*tt+k] = v
		}
	}
	tree, err := Decompose(data, Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true})
	if err != nil {
		t.Fatal(err)
	}
	mag := tree.ModeMagnitudes(FullBand())
	var active, flat float64
	for i := 0; i < 5; i++ {
		active += mag[i]
	}
	for i := 5; i < 10; i++ {
		flat += mag[i]
	}
	if active <= flat {
		t.Fatalf("mode magnitudes do not separate active (%g) from flat (%g) sensors", active, flat)
	}
}

func TestWindowStride(t *testing.T) {
	opts := Options{MaxCycles: 2, NyquistFactor: 4}.withDefaults()
	if s := windowStride(1600, opts); s != 100 {
		t.Fatalf("stride = %d want 100", s)
	}
	if s := windowStride(10, opts); s != 1 {
		t.Fatalf("small window stride = %d want 1", s)
	}
}

func TestInitialFitMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := multiscale(rng, 10, 512, 1, 0.1)
	opts := defaultOpts()
	batch, err := Decompose(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(opts)
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	bt := batch.Reconstruct()
	it := inc.Reconstruct()
	if d := mat.Sub(bt, it).FrobNorm(); d > 1e-6*(1+data.FrobNorm()) {
		t.Fatalf("InitialFit deviates from batch by %g", d)
	}
	if got, want := len(inc.Tree().Nodes), len(batch.Nodes); got != want {
		t.Fatalf("node count %d want %d", got, want)
	}
}

func TestPartialFitGrowsTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data, _ := multiscale(rng, 8, 768, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	stats, err := inc.PartialFit(data.ColSlice(512, 768))
	if err != nil {
		t.Fatal(err)
	}
	if inc.Cols() != 768 {
		t.Fatalf("Cols = %d want 768", inc.Cols())
	}
	if stats.NewColumns != 256 {
		t.Fatalf("NewColumns = %d want 256", stats.NewColumns)
	}
	if inc.Updates() != 1 {
		t.Fatalf("Updates = %d want 1", inc.Updates())
	}
	// Levels were demoted: tree now contains level-3 nodes from the old
	// fit's level-2 nodes.
	tree := inc.Tree()
	if tree.MaxLevel() < 3 {
		t.Fatalf("expected demoted levels, max level = %d", tree.MaxLevel())
	}
}

func TestIncrementalAccuracyGap(t *testing.T) {
	// Q2: the I-mrDMD reconstruction error may exceed batch mrDMD's, but
	// only by a bounded amount.
	rng := rand.New(rand.NewSource(9))
	data, _ := multiscale(rng, 12, 1024, 1, 0.2)
	opts := Options{DT: 1, MaxLevels: 5, MaxCycles: 2, UseSVHT: true}
	inc := NewIncremental(opts)
	if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	for j := 512; j < 1024; j += 128 {
		if _, err := inc.PartialFit(data.ColSlice(j, j+128)); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := Decompose(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	incErr := inc.ReconError()
	batchErr := batch.ReconError(data)
	if incErr > 2*batchErr+1e-9 {
		t.Fatalf("incremental error %g more than 2× batch error %g", incErr, batchErr)
	}
}

func TestDriftRecomputeSync(t *testing.T) {
	// A regime change between windows forces slow-mode drift; with a tiny
	// threshold the old subtree must be recomputed.
	rng := rand.New(rand.NewSource(10))
	p, tt := 8, 512
	data := mat.NewDense(p, tt)
	for i := 0; i < p; i++ {
		for k := 0; k < tt; k++ {
			base := 40.0
			if k >= 256 {
				base = 70.0 // regime shift
			}
			data.Data[i*tt+k] = base + rng.NormFloat64()
		}
	}
	opts := defaultOpts()
	opts.DriftThreshold = 1e-6
	inc := NewIncremental(opts)
	if err := inc.InitialFit(data.ColSlice(0, 256)); err != nil {
		t.Fatal(err)
	}
	stats, err := inc.PartialFit(data.ColSlice(256, 512))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Drift <= 0 {
		t.Fatal("regime change produced zero drift")
	}
	if !stats.Recomputed || inc.Recomputes() != 1 {
		t.Fatalf("expected a recompute: %+v", stats)
	}
}

func TestPartialFitErrors(t *testing.T) {
	inc := NewIncremental(defaultOpts())
	if _, err := inc.PartialFit(mat.NewDense(4, 8)); err == nil {
		t.Fatal("PartialFit before InitialFit must fail")
	}
	rng := rand.New(rand.NewSource(12))
	data, _ := multiscale(rng, 4, 128, 1, 0.1)
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	if err := inc.InitialFit(data); err == nil {
		t.Fatal("second InitialFit must fail")
	}
	if _, err := inc.PartialFit(mat.NewDense(5, 8)); err == nil {
		t.Fatal("row mismatch must fail")
	}
	bad := mat.NewDense(4, 8)
	bad.Set(0, 0, math.Inf(1))
	if _, err := inc.PartialFit(bad); err == nil {
		t.Fatal("Inf input must fail")
	}
	// Empty update is a no-op.
	if _, err := inc.PartialFit(mat.NewDense(4, 0)); err != nil {
		t.Fatal(err)
	}
	if inc.Cols() != 128 {
		t.Fatal("empty update changed the column count")
	}
}

func TestDriftLogRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data, _ := multiscale(rng, 6, 640, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 256)); err != nil {
		t.Fatal(err)
	}
	for j := 256; j < 640; j += 128 {
		if _, err := inc.PartialFit(data.ColSlice(j, j+128)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(inc.DriftLog()); got != 3 {
		t.Fatalf("drift log has %d entries, want 3", got)
	}
}

func TestRefitBatchConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data, _ := multiscale(rng, 6, 512, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 384)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.PartialFit(data.ColSlice(384, 512)); err != nil {
		t.Fatal(err)
	}
	tree, err := inc.RefitBatch()
	if err != nil {
		t.Fatal(err)
	}
	if tree.T != 512 {
		t.Fatalf("refit T = %d want 512", tree.T)
	}
	direct, err := Decompose(data, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.Sub(tree.Reconstruct(), direct.Reconstruct()).FrobNorm(); d > 1e-9*(1+data.FrobNorm()) {
		t.Fatalf("RefitBatch deviates from direct batch by %g", d)
	}
}

func BenchmarkDecompose1000x2000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data, _ := multiscale(rng, 1000, 2000, 1, 0.2)
	opts := Options{DT: 1, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialFit1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data, _ := multiscale(rng, 1000, 3000, 1, 0.2)
	opts := Options{DT: 1, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true}
	inc := NewIncremental(opts)
	if err := inc.InitialFit(data.ColSlice(0, 2000)); err != nil {
		b.Fatal(err)
	}
	blk := data.ColSlice(2000, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inc.PartialFit(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOptionsValidate covers the core-level knob validation shared by
// Decompose and Incremental.InitialFit.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"zero value", Options{}, true},
		{"negative workers", Options{Workers: -1}, false},
		{"negative block columns", Options{BlockColumns: -8}, false},
		{"positive drift threshold", Options{DriftThreshold: 1e-9}, true},
		{"negative drift threshold", Options{DriftThreshold: -1e-9}, false},
		{"NaN drift threshold", Options{DriftThreshold: math.NaN()}, false},
		{"infinite drift threshold", Options{DriftThreshold: math.Inf(1)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.opts.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("invalid options accepted")
			}
		})
	}
	// The entry points must surface the same errors.
	rng := rand.New(rand.NewSource(1))
	data, _ := multiscale(rng, 4, 32, 1, 0.05)
	if _, err := Decompose(data, Options{BlockColumns: -1}); err == nil {
		t.Fatal("Decompose accepted negative block columns")
	}
	inc := NewIncremental(Options{Workers: -2})
	if err := inc.InitialFit(data); err == nil {
		t.Fatal("InitialFit accepted negative workers")
	}
}
