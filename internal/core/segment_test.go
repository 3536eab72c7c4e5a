package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestFittedSegmentsNeverWritten: a fitted segment is a value. Each
// segment is hashed by bit pattern when it first appears, and every
// segment seen so far is hashed again after each later event: two
// PartialFits, a rejected NaN batch, a drift recompute and AddSensors.
// No hash may change. A PartialFit or a rejected batch must keep every
// old segment in its slot; a refit must swap in new segments instead of
// rewriting the old ones. After every event each Tree() node's level must
// equal 2 + its depth in its segment + the number of segments after it,
// both counted from node windows alone.
func TestFittedSegmentsNeverWritten(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data, _ := multiscale(rng, 20, 768, 1, 0.1)
	const p0 = 16
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.RowSlice(0, p0).ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}

	held := map[*segment]uint64{}
	var before []*segment
	check := func(stage string) {
		t.Helper()
		for seg, h := range held {
			if segmentHash(seg) != h {
				t.Fatalf("%s: segment [%d,%d) was written after its fit", stage, seg.start, seg.end)
			}
		}
		before = append(before[:0], inc.segments...)
		for _, seg := range before {
			if _, ok := held[seg]; !ok {
				held[seg] = segmentHash(seg)
			}
		}
		requireTreeLevels(t, stage, inc)
		requireSpectrumMatchesTree(t, stage, inc)
	}
	kept := func(stage string, n int) {
		t.Helper()
		if len(inc.segments) != n {
			t.Fatalf("%s: %d segments, want %d", stage, len(inc.segments), n)
		}
		for i, seg := range before {
			if inc.segments[i] != seg {
				t.Fatalf("%s: segment %d replaced", stage, i)
			}
		}
	}
	swapped := func(stage string) {
		t.Helper()
		for i, seg := range before {
			if inc.segments[i] == seg {
				t.Fatalf("%s: segment %d not swapped for its refit", stage, i)
			}
		}
	}
	check("InitialFit")

	for c := 512; c < 640; c += 64 {
		stats, err := inc.PartialFit(data.RowSlice(0, p0).ColSlice(c, c+64))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Recomputed {
			t.Fatal("PartialFit recomputed without a drift threshold")
		}
		kept("PartialFit", len(before)+1)
		check("PartialFit")
	}

	bad := data.RowSlice(0, p0).ColSlice(640, 704)
	bad.Set(3, 5, math.NaN())
	if _, err := inc.PartialFit(bad); err == nil {
		t.Fatal("PartialFit accepted a NaN batch")
	}
	kept("rejected NaN batch", len(before))
	check("rejected NaN batch")

	// Options are fixed at construction; raising the threshold only now
	// keeps the PartialFits above free of recomputes.
	inc.opts.DriftThreshold = 1e-9
	stats, err := inc.PartialFit(data.RowSlice(0, p0).ColSlice(640, 704))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Recomputed {
		t.Fatalf("drift %g did not trigger a recompute", stats.Drift)
	}
	swapped("drift recompute")
	check("drift recompute")

	if err := inc.AddSensors(data.RowSlice(p0, data.R).ColSlice(0, 704)); err != nil {
		t.Fatal(err)
	}
	swapped("AddSensors")
	check("AddSensors")
	// Three fitted, one appended with the recompute's four, four refits.
	if len(held) != 3+4+4 {
		t.Fatalf("held %d segments, want 11", len(held))
	}
}

// requireTreeLevels checks every Tree() node's level against a formula of
// the node windows: the level-1 node at 1, and a segment node at 2 plus
// the number of its segment's nodes whose windows strictly contain its
// own plus the number of segments after its own.
func requireTreeLevels(t *testing.T, stage string, inc *Incremental) {
	t.Helper()
	tree := inc.Tree()
	if tree.Nodes[0].Level != 1 {
		t.Fatalf("%s: level-1 node at level %d", stage, tree.Nodes[0].Level)
	}
	segs := inc.segments
	nodes := tree.Nodes[1:]
	for _, nd := range nodes {
		seg := -1
		for i, s := range segs {
			if s.start <= nd.Start && nd.End <= s.end {
				seg = i
			}
		}
		if seg < 0 {
			t.Fatalf("%s: node [%d,%d) lies in no segment", stage, nd.Start, nd.End)
		}
		depth := 0
		for _, o := range nodes {
			if o.Start <= nd.Start && nd.End <= o.End && o.Window() > nd.Window() {
				depth++
			}
		}
		if want := 2 + depth + len(segs) - 1 - seg; nd.Level != want {
			t.Fatalf("%s: node [%d,%d) of segment %d at level %d, want %d", stage, nd.Start, nd.End, seg, nd.Level, want)
		}
	}
}

// segmentHash hashes seg's window, its nodes' stored levels, windows,
// strides and NumAllModes, and every mode's λ, ψ, b, Φ, frequency and
// Power by bit pattern.
func segmentHash(seg *segment) uint64 {
	var b []byte
	ints := func(vs ...int) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
	}
	floats := func(vs ...float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	ints(seg.start, seg.end, seg.points, seg.depth, len(seg.nodes))
	for _, nd := range seg.nodes {
		ints(nd.Level, nd.Start, nd.End, nd.Stride, nd.NumAllModes, len(nd.Modes))
		for _, m := range nd.Modes {
			floats(real(m.Lambda), imag(m.Lambda), real(m.Psi), imag(m.Psi),
				real(m.Amp), imag(m.Amp), m.Freq, m.Power)
			for _, v := range m.Phi {
				floats(real(v), imag(v))
			}
		}
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
