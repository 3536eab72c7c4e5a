package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/codec"
	"imrdmd/internal/mat"
)

// TestSnapshotPrecisionSlot: the retired precision slot restores every
// tier a release wrote — "", "float64" and "mixed" — into the one float64
// analyzer, whose own snapshot then carries "float64" again, and rejects
// any other value as a corrupt stream.
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
		{"", true},
		{"float64", true},
		{"mixed", true},
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
}
