package svd

import (
	"bytes"
	"math/rand"
	"testing"

	"imrdmd/internal/codec"
	"imrdmd/internal/compute"
	"imrdmd/internal/mat"
)

// TestIncrementalSnapshotRoundTrip: encode mid-stream, decode, continue
// both streams — the decoded Incremental must stay bit-identical to the
// uninterrupted one, including across the re-orthogonalization boundary
// (the restored update counter keeps the every-8-updates schedule in
// phase).
func TestIncrementalSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const (
		m     = 45
		seedT = 24
		w     = 4
	)
	pre, post := 5, 8 // crosses updates%8 == 0 after the restore point
	data := mat.NewDense(m, seedT+(pre+post)*w)
	for i := range data.Data {
		data.Data[i] = rng.NormFloat64()
	}
	eng := compute.Shared(4)
	ref := NewIncrementalWith(eng, nil, data.ColSlice(0, seedT), 13)
	for b := 0; b < pre; b++ {
		ref.Update(data.ColSlice(seedT+b*w, seedT+(b+1)*w))
	}

	var buf bytes.Buffer
	enc := codec.NewWriter(&buf)
	ref.Encode(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := codec.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeIncrementalState(dec, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Rank() != ref.Rank() || got.Cols() != ref.Cols() || got.Rows() != ref.Rows() {
		t.Fatalf("restored shape %d/%d/%d vs %d/%d/%d",
			got.Rows(), got.Cols(), got.Rank(), ref.Rows(), ref.Cols(), ref.Rank())
	}

	for b := pre; b < pre+post; b++ {
		blk := data.ColSlice(seedT+b*w, seedT+(b+1)*w)
		ref.Update(blk)
		got.Update(blk)
	}
	rr, gr := ref.Result(), got.Result()
	if d := mat.Sub(gr.U, rr.U).FrobNorm(); d != 0 {
		t.Fatalf("restored U deviates by %g", d)
	}
	if d := mat.Sub(gr.V, rr.V).FrobNorm(); d != 0 {
		t.Fatalf("restored V deviates by %g", d)
	}
	for i := range rr.S {
		if gr.S[i] != rr.S[i] {
			t.Fatalf("σ[%d]: %v vs %v", i, gr.S[i], rr.S[i])
		}
	}
}

// TestDecodeIncrementalStateRejectsShapeMismatch: U/S/V rank
// disagreement on either side must fail validation.
func TestDecodeIncrementalStateRejectsShapeMismatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		u, v *mat.Dense
	}{
		{"U columns != len(S)", mat.NewDense(6, 3), mat.NewDense(9, 2)},
		{"V columns != len(S)", mat.NewDense(6, 2), mat.NewDense(9, 3)},
	} {
		var buf bytes.Buffer
		enc := codec.NewWriter(&buf)
		enc.Dense(tc.u)
		enc.Floats([]float64{2, 1})
		enc.Dense(tc.v)
		enc.Int(0)
		enc.Float(DefaultDropTol)
		enc.Int(DefaultReorthEvery)
		enc.Int(0)
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		dec, err := codec.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeIncrementalState(dec, nil, nil); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}
