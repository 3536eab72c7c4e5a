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
	"imrdmd/internal/codec"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// legacyShardedOpts and the schedule below reproduce the stream that
// wrote testdata/sharded_v2.snap with a release that could row-shard the
// level-1 SVD: the same options with two shards, InitialFit over 64
// columns of bench.SCLogData(8, 384, 1), then five PartialFits of 32 —
// ten level-1 block updates, one re-orthogonalization done and the
// counter two updates into the next cycle.
var legacyShardedOpts = core.Options{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 4}

const (
	legacyInitialT = 64
	legacyFixtureT = 224
	legacyStep     = 32
	legacyTotalT   = 384
)

// TestLegacyShardedSnapshotRestores: a version-2 snapshot whose level-1
// SVD was row-sharded (kind 1) restores into the single update path. The
// restored U/S/V must be the encoded factors bit for bit, and the stream
// continued from it — across the next re-orthogonalization — must agree
// with an analyzer that never ran sharded to 1e-8, the bound the sharded
// update was held to against the unsharded one (DESIGN.md §7).
func TestLegacyShardedSnapshotRestores(t *testing.T) {
	raw, err := os.ReadFile("testdata/sharded_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeIncremental(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensors() != 8 || got.Cols() != legacyFixtureT {
		t.Fatalf("restored %d sensors × %d cols, want 8 × %d", got.Sensors(), got.Cols(), legacyFixtureT)
	}

	// The kind-1 payload opens with the tag, the offsets of two shards
	// over 8 rows, then the contiguous U, Σ and V; re-encoding the
	// restored factors must reproduce those bytes verbatim.
	var hdr, want bytes.Buffer
	codec.NewWriter(&hdr)
	enc := codec.NewWriter(&want)
	f := got.Level1Factors()
	enc.Int(1)
	enc.Ints([]int{0, 4, 8})
	enc.Dense(f.U)
	enc.Floats(f.S)
	enc.Dense(f.V)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, want.Bytes()[hdr.Len():]) {
		t.Fatal("restored level-1 factors are not the encoded ones bit for bit")
	}

	data := bench.SCLogData(8, legacyTotalT, 1)
	ref := core.NewIncremental(legacyShardedOpts)
	if err := ref.InitialFit(data.ColSlice(0, legacyInitialT)); err != nil {
		t.Fatal(err)
	}
	for c := legacyInitialT; c < legacyTotalT; c += legacyStep {
		blk := mat.ColsView(data, c, c+legacyStep).Clone()
		if _, err := ref.PartialFit(blk); err != nil {
			t.Fatal(err)
		}
		if c < legacyFixtureT {
			continue
		}
		if _, err := got.PartialFit(blk.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	compareTrees(t, "legacy-sharded", got, ref, 1e-8)
	gs, rs := got.Level1Factors().S, ref.Level1Factors().S
	if len(gs) != len(rs) {
		t.Fatalf("level-1 rank %d vs %d", len(gs), len(rs))
	}
	for i := range rs {
		if d := math.Abs(gs[i] - rs[i]); d > 1e-8*rs[0] {
			t.Fatalf("σ[%d]: %v vs %v", i, gs[i], rs[i])
		}
	}
}

// legacyMixedOpts and the legacy schedule above reproduce the stream that
// wrote testdata/mixed_v2.snap with a release that had the float32
// screening tier: these options with Precision "mixed", InitialFit over
// 64 columns of bench.SCLogData(8, 384, 1), then five PartialFits of 32.
// Only the subtree windows ran the screen; the level-1 Brand update and
// every View computation were float64 in that release too.
var legacyMixedOpts = core.Options{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 4}

// legacyMixedViewDigest is viewDigest of the writing analyzer's View()
// taken just before it wrote the fixture, and legacyMixedGridError that
// View's GridError.
const (
	legacyMixedViewDigest = "65f1b1935eaa602b5bae10d5ec41c40741824e63595fd14c595485ed2714aa6b"
	legacyMixedGridError  = 85.68092192770098
)

// viewDigest hashes every field of a View but GridError by bit pattern.
// GridError sums the node reconstructions in a different order than the
// writing release did (segments first, the level-1 node last), so it is
// pinned to a tolerance instead (DESIGN.md §9).
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

// TestLegacyMixedSnapshotRestores: a snapshot written with Precision
// "mixed" restores into the float64 analyzer. The restored View() must be
// the writer's bit for bit except GridError, which agrees to 1e-12
// relative, and every restored node must re-encode to the snapshot's own
// bytes. The stream continued from it is then checked against an analyzer
// that ran float64 from the start over the same columns: the level-1
// factors within 1e-12·max|ref| (the Brand update never ran in float32,
// but the fixture's factors were built by the dense Jacobi core and the
// reference's by the secular-equation one — DESIGN.md §5), every subtree
// window keeping the same number of modes, and eigenvalues within the
// 1e-6 relative bound the mixed tier was held to.
func TestLegacyMixedSnapshotRestores(t *testing.T) {
	raw, err := os.ReadFile("testdata/mixed_v2.snap")
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DecodeIncremental(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	view := got.View()
	if d := viewDigest(view); d != legacyMixedViewDigest {
		t.Fatalf("restored View() digest %s, want the writer's %s", d, legacyMixedViewDigest)
	}
	if rel := math.Abs(view.GridError-legacyMixedGridError) / legacyMixedGridError; rel > 1e-12 {
		t.Fatalf("restored GridError %v, the writer's %v (rel %.3g > 1e-12)", view.GridError, legacyMixedGridError, rel)
	}
	for i, nd := range got.Tree().Nodes {
		var hdr, want bytes.Buffer
		codec.NewWriter(&hdr)
		enc := codec.NewWriter(&want)
		enc.Int(nd.Level)
		enc.Int(nd.Start)
		enc.Int(nd.End)
		enc.Int(nd.Stride)
		enc.Int(nd.NumAllModes)
		enc.Int(len(nd.Modes))
		for _, m := range nd.Modes {
			enc.Complexes(m.Phi)
			enc.Complex(m.Lambda)
			enc.Complex(m.Psi)
			enc.Complex(m.Amp)
			enc.Float(m.Freq)
			enc.Float(m.Power)
		}
		if !bytes.Contains(raw, want.Bytes()[hdr.Len():]) {
			t.Fatalf("restored node %d (L%d [%d,%d)) is not the encoded one bit for bit", i, nd.Level, nd.Start, nd.End)
		}
	}

	data := bench.SCLogData(8, legacyTotalT, 1)
	ref := core.NewIncremental(legacyMixedOpts)
	if err := ref.InitialFit(data.ColSlice(0, legacyInitialT)); err != nil {
		t.Fatal(err)
	}
	for c := legacyInitialT; c < legacyTotalT; c += legacyStep {
		blk := mat.ColsView(data, c, c+legacyStep).Clone()
		if _, err := ref.PartialFit(blk); err != nil {
			t.Fatal(err)
		}
		if c < legacyFixtureT {
			continue
		}
		if _, err := got.PartialFit(blk.Clone()); err != nil {
			t.Fatal(err)
		}
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
	var worst float64
	if len(gt.Nodes) != len(rt.Nodes) {
		t.Fatalf("%d nodes vs %d", len(gt.Nodes), len(rt.Nodes))
	}
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
			if rel > 1e-6 {
				t.Fatalf("node %d mode %d: λ %v vs %v (rel %g)", i, j, gl, rm.Lambda, rel)
			}
			worst = math.Max(worst, rel)
		}
	}
	t.Logf("largest relative eigenvalue gap to the float64 stream: %.3g", worst)
}
