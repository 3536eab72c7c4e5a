package core_test

import (
	"bytes"
	"math"
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
