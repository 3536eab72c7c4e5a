package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"testing"

	"imrdmd/internal/mat"
)

// Element counts one below, at and one above a chunk, per element size.
func boundaryLens(elemSize int) []int {
	per := chunkLen / elemSize
	return []int{per - 1, per, per + 1}
}

// special are the float64 bit patterns a bulk round trip must keep.
var special = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0123), // quiet NaN with payload
	math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
	math.Copysign(0, -1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
}

func sampleFloats(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i)*1.25 - 7
	}
	for i, x := range special {
		if i*997 < n {
			v[i*997] = x
		}
	}
	return v
}

func sampleFloat32s(n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(i)*0.5 - 3
	}
	if n > 2 {
		v[1] = math.Float32frombits(0x7fc0_0123) // NaN with payload
		v[n-1] = float32(math.Copysign(0, -1))
	}
	return v
}

func sampleInts(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i*31 - 1000
	}
	v[0] = math.MinInt32
	v[n-1] = maxLen
	return v
}

func sampleComplexes(n int) []complex128 {
	re := sampleFloats(n)
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(re[i], -re[n-1-i])
	}
	return v
}

// factor returns r×c = n with r as close to √n as n allows.
func factor(n int) (r, c int) {
	r = int(math.Sqrt(float64(n)))
	for n%r != 0 {
		r--
	}
	return r, n / r
}

// stridedView returns an r×c view into a wider r×(c+3) parent, so its
// rows are not contiguous.
func stridedView(r, c int) *mat.Dense {
	parent := sampleFloats(r * (c + 3))
	return &mat.Dense{R: r, C: c, Data: parent[:(r-1)*(c+3)+c], Stride: c + 3}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestChunkBoundaryRoundTrip: every bulk type round-trips bit for bit at
// one element below, at and above a chunk, including NaN payloads and
// −0, and a strided Dense view comes back packed.
func TestChunkBoundaryRoundTrip(t *testing.T) {
	for k, n := range boundaryLens(8) {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			fs, is, cs := sampleFloats(n), sampleInts(n), sampleComplexes(boundaryLens(16)[k])
			r, c := factor(n)
			dense := mat.NewDenseData(r, c, sampleFloats(n))
			view := stridedView(r, c)
			var buf bytes.Buffer
			w := NewWriter(&buf)
			w.Floats(fs)
			w.Ints(is)
			w.Complexes(cs)
			w.Dense(dense)
			w.Dense(view)
			w.Int(7) // a scalar after the bulk fields lands after them
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rd, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			gotF, gotI, gotC := rd.Floats(), rd.Ints(), rd.Complexes()
			gotD, gotV := rd.Dense(), rd.Dense()
			tail := rd.Int()
			if err := rd.Close(); err != nil {
				t.Fatal(err)
			}
			if len(gotF) != n || len(gotI) != n || len(gotC) != len(cs) {
				t.Fatalf("lengths %d/%d/%d", len(gotF), len(gotI), len(gotC))
			}
			for i := range fs {
				if !sameBits(gotF[i], fs[i]) || gotI[i] != is[i] {
					t.Fatalf("element %d: %v/%d, want %v/%d", i, gotF[i], gotI[i], fs[i], is[i])
				}
			}
			for i := range cs {
				if !sameBits(real(gotC[i]), real(cs[i])) || !sameBits(imag(gotC[i]), imag(cs[i])) {
					t.Fatalf("complex %d: %v, want %v", i, gotC[i], cs[i])
				}
			}
			for _, m := range []struct{ got, want *mat.Dense }{{gotD, dense}, {gotV, view}} {
				if m.got.R != m.want.R || m.got.C != m.want.C || m.got.Stride != 0 || len(m.got.Data) != m.want.R*m.want.C {
					t.Fatalf("shape %d×%d stride %d len %d, want packed %d×%d",
						m.got.R, m.got.C, m.got.Stride, len(m.got.Data), m.want.R, m.want.C)
				}
				for i := 0; i < m.want.R; i++ {
					for j := 0; j < m.want.C; j++ {
						if !sameBits(m.got.At(i, j), m.want.At(i, j)) {
							t.Fatalf("(%d,%d): %v, want %v", i, j, m.got.At(i, j), m.want.At(i, j))
						}
					}
				}
			}
			if tail != 7 {
				t.Fatalf("trailing Int = %d", tail)
			}
		})
	}
	for _, n := range boundaryLens(4) {
		r, c := factor(n)
		m := &mat.Dense32{R: r, C: c, Data: sampleFloat32s(n)}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Dense32(m)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got := rd.Dense32()
		if err := rd.Close(); err != nil {
			t.Fatal(err)
		}
		if got.R != r || got.C != c {
			t.Fatalf("Dense32 n=%d: shape %d×%d", n, got.R, got.C)
		}
		for i, x := range m.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(x) {
				t.Fatalf("Dense32 n=%d element %d: %v, want %v", n, i, got.Data[i], x)
			}
		}
	}
}

// TestWriterBytesPinned: the Writer's output equals the wire format
// spelled out with encoding/binary — little-endian i64 lengths and
// elements, matrices as row-major payloads — with a CRC-32 (IEEE) trailer
// over every byte before it.
func TestWriterBytesPinned(t *testing.T) {
	n := chunkLen/8 + 1
	fs, is, cs := sampleFloats(n), sampleInts(n), sampleComplexes(n)
	view := stridedView(5, n/5+1)
	m32 := &mat.Dense32{R: 3, C: n / 3, Data: sampleFloat32s(3 * (n / 3))}

	var got bytes.Buffer
	w := NewWriter(&got)
	w.Int(-5)
	w.Floats(fs)
	w.Ints(is)
	w.Complexes(cs)
	w.Dense(view)
	w.Dense32(m32)
	w.String("pin")
	w.Bool(true)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	le := binary.LittleEndian
	ref := []byte(magic)
	ref = le.AppendUint32(ref, Version)
	i64 := func(v int64) { ref = le.AppendUint64(ref, uint64(v)) }
	f64 := func(v float64) { ref = le.AppendUint64(ref, math.Float64bits(v)) }
	i64(-5)
	i64(int64(len(fs)))
	for _, x := range fs {
		f64(x)
	}
	i64(int64(len(is)))
	for _, x := range is {
		i64(int64(x))
	}
	i64(int64(len(cs)))
	for _, x := range cs {
		f64(real(x))
		f64(imag(x))
	}
	i64(int64(view.R))
	i64(int64(view.C))
	for i := 0; i < view.R; i++ {
		for j := 0; j < view.C; j++ {
			f64(view.At(i, j))
		}
	}
	i64(int64(m32.R))
	i64(int64(m32.C))
	for _, x := range m32.Data {
		ref = le.AppendUint32(ref, math.Float32bits(x))
	}
	i64(3)
	ref = append(ref, "pin"...)
	ref = append(ref, 1)
	ref = le.AppendUint32(ref, crc32.ChecksumIEEE(ref))

	if !bytes.Equal(got.Bytes(), ref) {
		i := 0
		for i < min(got.Len(), len(ref)) && got.Bytes()[i] == ref[i] {
			i++
		}
		t.Fatalf("writer output differs from the reference at byte %d (lengths %d, %d)", i, got.Len(), len(ref))
	}
}

// TestTruncatedSecondChunk: a bulk field cut inside its second chunk
// fails with io.ErrUnexpectedEOF, for every bulk decoder.
func TestTruncatedSecondChunk(t *testing.T) {
	n := chunkLen/8 + chunkLen/16 // one and a half chunks of 8-byte elements
	r, c := factor(n)
	cases := []struct {
		name string
		put  func(*Writer)
		get  func(*Reader) bool
	}{
		{"Floats", func(w *Writer) { w.Floats(sampleFloats(n)) }, func(r *Reader) bool { return r.Floats() == nil }},
		{"Ints", func(w *Writer) { w.Ints(sampleInts(n)) }, func(r *Reader) bool { return r.Ints() == nil }},
		{"Complexes", func(w *Writer) { w.Complexes(sampleComplexes(n / 2)) }, func(r *Reader) bool { return r.Complexes() == nil }},
		{"Dense", func(w *Writer) { w.Dense(mat.NewDenseData(r, c, sampleFloats(n))) }, func(r *Reader) bool { return r.Dense() == nil }},
		{"Dense32", func(w *Writer) { w.Dense32(&mat.Dense32{R: r, C: 2 * c, Data: sampleFloat32s(2 * n)}) }, func(r *Reader) bool { return r.Dense32() == nil }},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		tc.put(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		cut := len(full) - 4 - chunkLen/4 // inside the second, 32 KiB chunk
		rd, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if !tc.get(rd) {
			t.Fatalf("%s: truncated field decoded", tc.name)
		}
		if !errors.Is(rd.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("%s: want io.ErrUnexpectedEOF, got %v", tc.name, rd.Err())
		}
	}
}

// TestIntsOutOfRange: an Ints element outside [MinInt32, maxLen] fails
// the read with ErrCorrupt naming the first bad element, wherever in the
// slice it sits.
func TestIntsOutOfRange(t *testing.T) {
	n := chunkLen/8 + 100
	for _, bad := range []struct {
		at int
		v  int64
	}{{0, maxLen + 1}, {chunkLen/8 - 1, math.MinInt32 - 1}, {chunkLen / 8, 1 << 40}, {n - 1, -1 << 62}} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Int(n)
		for i := 0; i < n; i++ {
			switch i {
			case bad.at:
				w.I64(bad.v)
			case n - 1:
				w.I64(maxLen + 2) // a later bad element must not be the one reported
			default:
				w.Int(i)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if v := rd.Ints(); v != nil {
			t.Fatalf("bad element at %d: decoded %d ints", bad.at, len(v))
		}
		if !errors.Is(rd.Err(), ErrCorrupt) {
			t.Fatalf("bad element at %d: want ErrCorrupt, got %v", bad.at, rd.Err())
		}
		if want := fmt.Sprintf("int %d out of range", bad.v); !bytes.Contains([]byte(rd.Err().Error()), []byte(want)) {
			t.Fatalf("bad element at %d: error %q does not name %d", bad.at, rd.Err(), bad.v)
		}
	}
}

// TestLyingLengthGrowthBounded: a stream that claims 512 MiB of floats
// but carries 1 MiB allocates a small multiple of what it carried: the
// result grows by doubling with the consumed chunks, never toward the
// claimed length.
func TestLyingLengthGrowthBounded(t *testing.T) {
	carried := 1 << 20
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(1 << 26)
	for i := 0; i < carried/8; i++ {
		w.Float(float64(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if v := r.Floats(); v != nil {
		t.Fatal("truncated slice decoded")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(4*carried+2*chunkLen) {
		t.Fatalf("carrying %d KiB allocated %d KiB", carried>>10, grown>>10)
	}
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", r.Err())
	}
}

// TestLyingLengthInMemory: a bytes.Reader reports its unread length, and
// the decoder allocates a slice up front only when the claimed elements
// fit in it. A claim just past the carried bytes and one far past them
// must both fail with io.ErrUnexpectedEOF, allocating no more than the
// bytes in memory plus the chunked growth bound.
func TestLyingLengthInMemory(t *testing.T) {
	carried := 1 << 20
	for _, claim := range []int{carried/8 + 1, carried/8 + 64, 1 << 26} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Int(claim)
		for i := 0; i < carried/8; i++ {
			w.Float(float64(i))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if v := r.Floats(); v != nil {
			t.Fatalf("claim %d: truncated slice decoded", claim)
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(4*carried+2*chunkLen) {
			t.Fatalf("claim %d: carrying %d KiB allocated %d KiB", claim, carried>>10, grown>>10)
		}
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("claim %d: want ErrUnexpectedEOF, got %v", claim, r.Err())
		}
	}
}

// TestDenseFromBytesAllocatesOnce: decoding a Theta-shaped Dense from a
// bytes.Reader allocates its elements once — within 5% of the payload —
// instead of doubling its way up to them.
func TestDenseFromBytesAllocatesOnce(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Dense(benchDense())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	payload := uint64(8 * benchRows * benchCols)
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := r.Dense()
	runtime.ReadMemStats(&after)
	if m == nil {
		t.Fatal(r.Err())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; float64(grown) > 1.05*float64(payload) {
		t.Fatalf("decoding a %d MiB Dense allocated %d MiB", payload>>20, grown>>20)
	}
}

// Theta's shape: P=4392 sensors by 1720 columns.
const benchRows, benchCols = 4392, 1720

func benchDense() *mat.Dense {
	return mat.NewDenseData(benchRows, benchCols, sampleFloats(benchRows*benchCols))
}

func BenchmarkWriterDense(b *testing.B) {
	m := benchDense()
	b.SetBytes(int64(8 * len(m.Data)))
	for b.Loop() {
		w := NewWriter(io.Discard)
		w.Dense(m)
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderDense(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Dense(benchDense())
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.SetBytes(int64(8 * benchRows * benchCols))
	for b.Loop() {
		r, err := NewReader(bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		if r.Dense() == nil {
			b.Fatal(r.Err())
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
