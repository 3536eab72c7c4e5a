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

// TestDecodeIncrementalStateRejectsShapeMismatch: U/S/V rank disagreement
// must fail validation.
func TestDecodeIncrementalStateRejectsShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := codec.NewWriter(&buf)
	enc.Dense(mat.NewDense(6, 3)) // U rank 3
	enc.Floats([]float64{2, 1})   // but 2 singular values
	enc.Dense(mat.NewDense(9, 2))
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
		t.Fatal("factor shape mismatch accepted")
	}
}

// encodeLegacySharded writes a level-1 kind-1 payload in the layout the
// removed row-sharded coordinator used: offsets, the contiguous U, Σ, V,
// the update knobs and counter, then the f32 flag and transport counters.
func encodeLegacySharded(t *testing.T, offs []int, u *mat.Dense, s []float64, v *mat.Dense, updates int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := codec.NewWriter(&buf)
	enc.Ints(offs)
	enc.Dense(u)
	enc.Floats(s)
	enc.Dense(v)
	enc.Int(0)
	enc.Float(DefaultDropTol)
	enc.Int(DefaultReorthEvery)
	enc.Bool(true)
	enc.Int(updates)
	for i := 0; i < 6; i++ {
		enc.Int(i + 1)
	}
	enc.I64(4096)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeLegacyShardedState: a sharded payload decodes into an
// Incremental holding the coordinator's contiguous U, Σ, V and update
// counter, and continues the stream exactly like an Incremental restored
// from the same factors in the current layout.
func TestDecodeLegacyShardedState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seed := NewIncremental(randDense(rng, 9, 6), 0)
	seed.Update(randDense(rng, 9, 3))
	r := seed.Result()
	dec, err := codec.NewReader(bytes.NewReader(encodeLegacySharded(t, []int{0, 5, 9}, r.U, r.S, r.V, 1)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLegacyShardedState(dec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	if got.updates != seed.updates || got.reorthEvery != seed.reorthEvery || got.DropTol != seed.DropTol || got.MaxRank != seed.MaxRank {
		t.Fatalf("knobs/counter: got %+v, want %+v", got, seed)
	}
	for i := 0; i < 8; i++ {
		blk := randDense(rng, 9, 2)
		seed.Update(blk)
		got.Update(blk)
	}
	sr, gr := seed.Result(), got.Result()
	if d := mat.Sub(gr.U, sr.U).FrobNorm(); d != 0 {
		t.Fatalf("continued U deviates by %g", d)
	}
	if d := mat.Sub(gr.V, sr.V).FrobNorm(); d != 0 {
		t.Fatalf("continued V deviates by %g", d)
	}
}

// TestDecodeLegacyShardedStateRejectsCorruptShapes: the structural checks
// the sharded decoder made on its offsets and factor shapes still guard
// the legacy path, so a corrupt payload fails at restore instead of
// inside a later update.
func TestDecodeLegacyShardedStateRejectsCorruptShapes(t *testing.T) {
	cases := []struct {
		name string
		offs []int
		u    *mat.Dense
		s    []float64
		v    *mat.Dense
	}{
		{"offsets past U rows", []int{0, 5}, mat.NewDense(4, 2), []float64{1, 0.5}, mat.NewDense(10, 2)},
		{"offsets short of U rows", []int{0, 2, 3}, mat.NewDense(4, 2), []float64{1, 0.5}, mat.NewDense(10, 2)},
		{"offsets not from zero", []int{1, 4}, mat.NewDense(4, 2), []float64{1, 0.5}, mat.NewDense(10, 2)},
		{"non-monotone offsets", []int{0, 3, 1, 4}, mat.NewDense(4, 2), []float64{1, 0.5}, mat.NewDense(10, 2)},
		{"single offset", []int{0}, mat.NewDense(4, 2), []float64{1, 0.5}, mat.NewDense(10, 2)},
		{"U columns != len(S)", []int{0, 2, 4}, mat.NewDense(4, 3), []float64{1, 0.5}, mat.NewDense(10, 2)},
		{"V columns != len(S)", []int{0, 2, 4}, mat.NewDense(4, 2), []float64{1, 0.5}, mat.NewDense(10, 3)},
	}
	for _, tc := range cases {
		dec, err := codec.NewReader(bytes.NewReader(encodeLegacySharded(t, tc.offs, tc.u, tc.s, tc.v, 0)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeLegacyShardedState(dec, nil, nil); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}
