package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/cmplx"
	"os"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// goldenOpts and the schedule below reproduce the stream that wrote
// testdata/current_v2.snap: InitialFit over 192 columns of
// bench.SCLogData(8, 1024, 1), then four PartialFits of 64, snapshotted
// at T=448. The options exercise every section the format carries:
// ColdHorizon 128 demotes the first 256 columns to the f32 cold tier,
// DriftWindow and AmplitudeWindow bound the level-1 refit at 16 grid
// columns, and DriftThreshold 35 recomputes the older segments at T=256,
// 384 and 448 (drift 59.7, 43.9, 83.2) but not at T=320 (32.3), so the
// fixture holds four segments, three recomputes and a mixed drift log.
// To rewrite the fixture, snapshot the reference analyzer of
// TestGoldenSnapshotRestores at goldenFixtureT.
var goldenOpts = core.Options{
	DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 4,
	DriftWindow: 16, AmplitudeWindow: 16, ColdHorizon: 128, DriftThreshold: 35,
}

const (
	goldenInitialT = 192
	goldenFixtureT = 448
	goldenStep     = 64
	goldenTotalT   = 1024
)

// goldenViewDigest is viewDigest of the writing analyzer's View() taken
// just before it wrote the fixture, and goldenGridError that View's
// GridError.
const (
	goldenViewDigest = "1d7546043690982c970c68cfd62d9e44c4ff2690853950b418f5d1fb485c6929"
	goldenGridError  = 23.37124426446479
)

// goldenLambdaTol bounds the relative eigenvalue gap between the stream
// continued from the fixture and a fresh run (DESIGN.md §8).
const goldenLambdaTol = 1e-10

// viewDigest hashes every field of a View but GridError by bit pattern.
// GridError sums the node reconstructions on the GEMM kernels, whose last
// bits depend on the kernel tier and on how the node sum is ordered, so
// it is pinned to a tolerance instead (DESIGN.md §9).
func viewDigest(v core.View) string {
	h := sha256.New()
	put := func(x uint64) { _ = binary.Write(h, binary.LittleEndian, x) }
	for _, p := range v.Spectrum {
		put(math.Float64bits(p.Freq))
		put(math.Float64bits(p.Power))
		put(math.Float64bits(p.Amp))
		put(math.Float64bits(p.Grow))
		put(uint64(p.Level))
	}
	for _, n := range []int{v.NumModes, v.MaxLevel, v.Nodes, v.Steps, v.Sensors, v.Updates, v.Recomputes, v.GridCols} {
		put(uint64(n))
	}
	put(math.Float64bits(v.LastDrift))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSnapshotRestores pins the one snapshot format the decoder
// reads with committed bytes. The restored View() must be the writer's
// bit for bit except GridError, which agrees to 1e-12 relative, and the
// restored analyzer must snapshot back to the fixture byte for byte. The
// stream continued from it to T=1024 — across two more demotions and two
// more drift recomputes — is then held to a fresh run over the same
// columns: level-1 U/S/V within 1e-12·max|ref|, the same node windows
// and mode counts, and every eigenvalue within goldenLambdaTol relative.
// On the tree that wrote the fixture all three gaps are zero; the
// tolerances let a later change of arithmetic keep reading old bytes.
func TestGoldenSnapshotRestores(t *testing.T) {
	raw, err := os.ReadFile("testdata/current_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeIncremental(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	view := got.View()
	if view.Steps != goldenFixtureT || view.Updates != 4 || view.Recomputes != 3 || got.MemStats().ColdSteps != 256 {
		t.Fatalf("restored T=%d, %d updates, %d recomputes, %d cold columns; want %d, 4, 3, 256",
			view.Steps, view.Updates, view.Recomputes, got.MemStats().ColdSteps, goldenFixtureT)
	}
	if d := viewDigest(view); d != goldenViewDigest {
		t.Fatalf("restored View() digest %s, want the writer's %s", d, goldenViewDigest)
	}
	if rel := math.Abs(view.GridError-goldenGridError) / goldenGridError; rel > 1e-12 {
		t.Fatalf("restored GridError %v, the writer's %v (rel %.3g > 1e-12)", view.GridError, goldenGridError, rel)
	}
	var again bytes.Buffer
	if err := got.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("snapshot of the restored analyzer differs from the fixture")
	}

	data := bench.SCLogData(8, goldenTotalT, 1)
	ref := core.NewIncremental(goldenOpts)
	if err := ref.InitialFit(data.ColSlice(0, goldenInitialT)); err != nil {
		t.Fatal(err)
	}
	for c := goldenInitialT; c < goldenTotalT; c += goldenStep {
		blk := mat.ColsView(data, c, c+goldenStep).Clone()
		rs, err := ref.PartialFit(blk)
		if err != nil {
			t.Fatal(err)
		}
		if c < goldenFixtureT {
			continue
		}
		gs, err := got.PartialFit(blk.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if gs.Recomputed != rs.Recomputed {
			t.Fatalf("update at %d: restored recomputed=%v, fresh %v", c, gs.Recomputed, rs.Recomputed)
		}
	}
	if got.Recomputes() != 5 || got.MemStats().ColdSteps != 768 {
		t.Fatalf("continued stream: %d recomputes, %d cold columns; want 5, 768", got.Recomputes(), got.MemStats().ColdSteps)
	}

	gf, rf := got.Level1Factors(), ref.Level1Factors()
	for _, p := range []struct {
		name     string
		got, ref []float64
	}{{"U", gf.U.Data, rf.U.Data}, {"S", gf.S, rf.S}, {"V", gf.V.Data, rf.V.Data}} {
		if len(p.got) != len(p.ref) {
			t.Fatalf("level-1 %s: %d entries vs %d", p.name, len(p.got), len(p.ref))
		}
		var scale, dev float64
		for i := range p.ref {
			scale = math.Max(scale, math.Abs(p.ref[i]))
			dev = math.Max(dev, math.Abs(p.got[i]-p.ref[i]))
		}
		if dev > 1e-12*scale {
			t.Fatalf("level-1 %s: max deviation %.3g > 1e-12·max|ref| = %.3g", p.name, dev, 1e-12*scale)
		}
		t.Logf("level-1 %s: max deviation %.3g (max|ref| %.3g)", p.name, dev, scale)
	}

	gt, rt := got.Tree(), ref.Tree()
	if len(gt.Nodes) != len(rt.Nodes) {
		t.Fatalf("%d nodes vs %d", len(gt.Nodes), len(rt.Nodes))
	}
	var worst float64
	for i, rn := range rt.Nodes {
		gn := gt.Nodes[i]
		if gn.Level != rn.Level || gn.Start != rn.Start || gn.End != rn.End {
			t.Fatalf("node %d: L%d [%d,%d) vs L%d [%d,%d)", i, gn.Level, gn.Start, gn.End, rn.Level, rn.Start, rn.End)
		}
		if len(gn.Modes) != len(rn.Modes) {
			t.Fatalf("node %d (L%d [%d,%d)): %d modes vs %d", i, rn.Level, rn.Start, rn.End, len(gn.Modes), len(rn.Modes))
		}
		for j, rm := range rn.Modes {
			gl := gn.Modes[j].Lambda
			rel := cmplx.Abs(gl-rm.Lambda) / cmplx.Abs(rm.Lambda)
			if rel > goldenLambdaTol {
				t.Fatalf("node %d mode %d: λ %v vs %v (rel %.3g > %g)", i, j, gl, rm.Lambda, rel, goldenLambdaTol)
			}
			worst = math.Max(worst, rel)
		}
	}
	t.Logf("largest relative eigenvalue gap to the fresh run: %.3g", worst)
}
