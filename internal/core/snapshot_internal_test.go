package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"imrdmd/internal/codec"
	"imrdmd/internal/mat"
)

// TestSnapshotPrecisionSlot: the retired precision slot restores only
// "float64", the value Snapshot writes, and the restored analyzer's own
// snapshot carries it again byte for byte. Any other value — "" and
// "mixed", which releases before the float32 tier's removal wrote,
// included — marks the stream corrupt.
func TestSnapshotPrecisionSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := multiscale(rng, 6, 96, 1, 0.1)
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := inc.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prec string
		ok   bool
	}{
		{"", false},
		{"float64", true},
		{"mixed", false},
		{"float16", false},
		{"Mixed", false},
	} {
		raw := withPrecisionSlot(t, want.Bytes(), "float64", c.prec)
		got, err := DecodeIncremental(bytes.NewReader(raw))
		if !c.ok {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("precision %q: want ErrCorrupt, got %v", c.prec, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("precision %q: %v", c.prec, err)
		}
		var again bytes.Buffer
		if err := got.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want.Bytes()) {
			t.Fatalf("precision %q: re-snapshot differs from the float64 original", c.prec)
		}
	}
}

// goldenSnapshot is the committed snapshot TestGoldenSnapshotRestores
// pins; the tests below mutate its bytes.
const goldenSnapshot = "testdata/current_v2.snap"

func readGolden(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// editableSnapshot decodes raw and returns the analyzer with a copy of
// the stream's body, ready for a slot to be rewritten.
func editableSnapshot(tb testing.TB, raw []byte) (*Incremental, []byte) {
	tb.Helper()
	inc, err := DecodeIncremental(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	return inc, append([]byte(nil), unframeSnapshot(tb, raw)...)
}

// level1KindAt returns the offset in body, a snapshot of inc, of the
// level-1 kind tag: the word right before the level-1 SVD payload, which
// ends the body.
func level1KindAt(tb testing.TB, inc *Incremental, body []byte) int {
	tb.Helper()
	var payload bytes.Buffer
	enc := codec.NewWriter(&payload)
	inc.isvd.Encode(enc)
	if err := enc.Close(); err != nil {
		tb.Fatal(err)
	}
	at := len(body) - (payload.Len() - snapshotHeaderLen - 4) - 8
	if tag := binary.LittleEndian.Uint64(body[at:]); tag != isvdKind {
		tb.Fatalf("level-1 kind tag at %d holds %d, want %d", at, tag, isvdKind)
	}
	return at
}

// withKindTag returns raw with its level-1 kind tag set to tag, re-framed
// so its checksum stays valid.
func withKindTag(tb testing.TB, raw []byte, tag uint64) []byte {
	tb.Helper()
	inc, body := editableSnapshot(tb, raw)
	binary.LittleEndian.PutUint64(body[level1KindAt(tb, inc, body):], tag)
	return frameSnapshot(body)
}

// withDriftLog returns raw with its drift log — the Floats section right
// before the level-1 kind tag — replaced by one of n entries, re-framed
// so its checksum stays valid.
func withDriftLog(tb testing.TB, raw []byte, n int) []byte {
	tb.Helper()
	inc, body := editableSnapshot(tb, raw)
	end := level1KindAt(tb, inc, body)
	at := end - 8*len(inc.driftLog) - 8
	if got := binary.LittleEndian.Uint64(body[at:]); got != uint64(len(inc.driftLog)) {
		tb.Fatalf("drift log length word at %d holds %d, want %d", at, got, len(inc.driftLog))
	}
	log := binary.LittleEndian.AppendUint64(nil, uint64(n))
	for i := range n {
		log = binary.LittleEndian.AppendUint64(log, math.Float64bits(1e-3*float64(i)))
	}
	return frameSnapshot(append(append(append([]byte(nil), body[:at]...), log...), body[end:]...))
}

// TestSnapshotRejectsRetiredLayouts: the decoder reads only the layout
// Snapshot writes (format version 2, level-1 kind 0, precision slot
// "float64", at most driftLogCap drift entries). Each retired or invalid
// variant of the golden fixture fails with its sentinel error; the
// fixture itself and a drift log at exactly driftLogCap entries restore.
func TestSnapshotRejectsRetiredLayouts(t *testing.T) {
	golden := readGolden(t)
	v1 := append([]byte(nil), golden...)
	binary.LittleEndian.PutUint32(v1[len("IMRDSNAP"):], 1)
	binary.LittleEndian.PutUint32(v1[len(v1)-4:], crc32.ChecksumIEEE(v1[:len(v1)-4]))
	for _, c := range []struct {
		name string
		raw  []byte
		want error // nil: must restore
	}{
		{"fixture", golden, nil},
		{"version-1 header", v1, codec.ErrVersion},
		{"level-1 kind 1", withKindTag(t, golden, 1), codec.ErrCorrupt},
		{"precision \"\"", withPrecisionSlot(t, golden, "float64", ""), codec.ErrCorrupt},
		{"precision \"mixed\"", withPrecisionSlot(t, golden, "float64", "mixed"), codec.ErrCorrupt},
		{"drift log of driftLogCap entries", withDriftLog(t, golden, driftLogCap), nil},
		{"drift log of driftLogCap+1 entries", withDriftLog(t, golden, driftLogCap+1), codec.ErrCorrupt},
	} {
		_, err := DecodeIncremental(bytes.NewReader(c.raw))
		if c.want == nil && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: want %v, got %v", c.name, c.want, err)
		}
	}
}

// TestValidateDecodedInvariants exercises the structural checks a
// checksum-valid-but-wrong snapshot must die on at restore time: the
// grid-index invariant whose violation would send PartialFit's gather
// loop out of range, and the level-1 factor shape checks. White-box: a
// genuinely fitted analyzer satisfies the invariants, and each mutation
// below must flip validation to an error.
func TestValidateDecodedInvariants(t *testing.T) {
	data := mat.NewDense(6, 64)
	for i := range data.Data {
		data.Data[i] = 50 + 3*math.Sin(float64(i)/9)
	}
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	if err := inc.validateDecoded(); err != nil {
		t.Fatalf("fitted analyzer fails its own invariants: %v", err)
	}

	mutate := func(name string, f func(), undo func()) {
		f()
		if err := inc.validateDecoded(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		undo()
		if err := inc.validateDecoded(); err != nil {
			t.Fatalf("%s: undo left analyzer invalid: %v", name, err)
		}
	}

	ns := inc.nextSample
	mutate("negative nextSample",
		func() { inc.nextSample = -100 },
		func() { inc.nextSample = ns })
	mutate("runaway nextSample",
		func() { inc.nextSample = inc.hist.Cols() + 100*inc.stride1 },
		func() { inc.nextSample = ns })
	if inc.stride1 < 2 {
		t.Fatalf("test premise: want stride > 1, got %d", inc.stride1)
	}
	mutate("misaligned nextSample",
		func() { inc.nextSample = ns + 1 },
		func() { inc.nextSample = ns })
	p := inc.p
	mutate("sensor-count mismatch",
		func() { inc.p = p + 3 },
		func() { inc.p = p })
	st := inc.stride1
	mutate("zero stride",
		func() { inc.stride1 = 0 },
		func() { inc.stride1 = st })
	segs := inc.segments
	mutate("segment outside history",
		func() { inc.segments = append(segs, &segment{start: 10, end: inc.hist.Cols() + 50}) },
		func() { inc.segments = segs })
}

// TestValidateDecodedNodeInvariants: tree-node corruption (window out of
// range, short spatial vectors) must fail validation — these are indexed
// unchecked by reconstruction and spectrum queries.
func TestValidateDecodedNodeInvariants(t *testing.T) {
	data := mat.NewDense(6, 64)
	for i := range data.Data {
		data.Data[i] = 50 + 3*math.Sin(float64(i)/9)
	}
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data); err != nil {
		t.Fatal(err)
	}
	if err := inc.validateDecoded(); err != nil {
		t.Fatal(err)
	}

	end := inc.level1.End
	inc.level1.End = inc.hist.Cols() + 7
	if err := inc.validateDecoded(); err == nil {
		t.Fatal("node window past history accepted")
	}
	inc.level1.End = end

	if len(inc.level1.Modes) == 0 {
		t.Fatal("test premise: want level-1 modes")
	}
	phi := inc.level1.Modes[0].Phi
	inc.level1.Modes[0].Phi = phi[:len(phi)-2]
	if err := inc.validateDecoded(); err == nil {
		t.Fatal("short spatial vector accepted")
	}
	inc.level1.Modes[0].Phi = phi
	if err := inc.validateDecoded(); err != nil {
		t.Fatal(err)
	}

	// Levels: the level-1 node at 1, and every segment node inside the
	// [2, MaxLevels] = [2, 3] a subtree fit produces.
	inc.level1.Level = 2
	if err := inc.validateDecoded(); err == nil {
		t.Fatal("level-1 node at level 2 accepted")
	}
	inc.level1.Level = 1
	nd := inc.segments[0].nodes[0]
	for _, lvl := range []int{1, 4, -1} {
		nd.Level = lvl
		if err := inc.validateDecoded(); err == nil {
			t.Fatalf("segment node at fit-time level %d accepted", lvl)
		}
	}
	nd.Level = 2
	if err := inc.validateDecoded(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeChecksSegmentLevels: a snapshot stores each segment node at
// its tree level, and decode subtracts the segments after its own before
// checking it against [2, MaxLevels]. A three-segment stream restores
// with the live tree's levels; the same stream with the oldest segment's
// first root stored one level shallower (level 3, fit-time 1) and with
// the newest segment's deepest node one level deeper (level 4 >
// MaxLevels 3) does not.
func TestDecodeChecksSegmentLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data, _ := multiscale(rng, 6, 128, 1, 0.1)
	inc := NewIncremental(Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data.ColSlice(0, 64)); err != nil {
		t.Fatal(err)
	}
	for c := 64; c < 128; c += 32 {
		if _, err := inc.PartialFit(data.ColSlice(c, c+32)); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip := func() (*Incremental, error) {
		t.Helper()
		var buf bytes.Buffer
		if err := inc.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return DecodeIncremental(&buf)
	}
	dec, err := roundTrip()
	if err != nil {
		t.Fatal(err)
	}
	want, got := inc.Tree().Nodes, dec.Tree().Nodes
	if len(got) != len(want) {
		t.Fatalf("restored %d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Level != want[i].Level {
			t.Fatalf("node %d restored at level %d, want %d", i, got[i].Level, want[i].Level)
		}
	}

	if len(inc.segments) != 3 {
		t.Fatalf("test premise: want 3 segments, got %d", len(inc.segments))
	}
	newest := inc.segments[2].nodes
	for _, c := range []struct {
		name string
		nd   *Node
		lvl  int
	}{
		{"oldest root at fit-time level 1", inc.segments[0].nodes[0], 1},
		{"newest deepest node at level 4", newest[len(newest)-1], 4},
	} {
		old := c.nd.Level
		c.nd.Level = c.lvl
		if _, err := roundTrip(); err == nil || !strings.Contains(err.Error(), "fit-time level") {
			t.Errorf("%s: want a fit-time level error, got %v", c.name, err)
		}
		c.nd.Level = old
	}
}
