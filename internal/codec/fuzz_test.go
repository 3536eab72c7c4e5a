package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"imrdmd/internal/mat"
)

// refReader is the reference FuzzReaderSlices holds the bulk decoders
// to: it decodes a body one element at a time straight from its bytes,
// with the codec's length and range rules and none of its chunking.
type refReader struct {
	b    []byte
	used int // bytes consumed
	err  error
	bad  int // index of the element that failed its range check, or -1
}

func (r *refReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.used < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	p := r.b[r.used : r.used+n]
	r.used += n
	return p
}

func (r *refReader) i64() int64 {
	if p := r.take(8); p != nil {
		return int64(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (r *refReader) int() int {
	v := r.i64()
	if r.err == nil && (v < math.MinInt32 || v > maxLen) {
		r.err = ErrCorrupt
	}
	return int(v)
}

func (r *refReader) length() int {
	v := r.int()
	if r.err == nil && v < 0 {
		r.err = ErrCorrupt
	}
	return v
}

func (r *refReader) shape() (int, int) {
	rows, cols := r.length(), r.length()
	if r.err == nil && rows > 0 && cols > maxLen/rows {
		r.err = ErrCorrupt
	}
	return rows, cols
}

// field is one decoded bulk field: its shape (rows 1 for plain slices),
// the bit pattern of every element, and where its payload started.
type field struct {
	rows, cols int
	bits       []uint64
	payload    int
}

// elements decodes n elements of elemSize bytes, appending each one's
// words through get and recording the first element get rejects.
func (r *refReader) elements(f *field, n, elemSize int, get func([]uint64, []byte) ([]uint64, bool)) {
	f.payload = r.used
	for i := 0; i < n && r.err == nil; i++ {
		p := r.take(elemSize)
		if p == nil {
			return
		}
		var ok bool
		if f.bits, ok = get(f.bits, p); !ok {
			r.err, r.bad = ErrCorrupt, i
		}
	}
}

func getWords(dst []uint64, p []byte) ([]uint64, bool) {
	for ; len(p) > 0; p = p[8:] {
		dst = append(dst, binary.LittleEndian.Uint64(p))
	}
	return dst, true
}

// The bulk decoders FuzzReaderSlices drives, each with its element size.
const (
	kindFloats = iota
	kindComplexes
	kindInts
	kindDense
	kindDense32
	numKinds
)

var elemSizes = [numKinds]int{8, 16, 8, 8, 4}

func (r *refReader) decode(kind int) field {
	r.bad = -1
	f := field{rows: 1}
	switch kind {
	case kindFloats, kindComplexes, kindInts:
		f.cols = r.length()
	case kindDense, kindDense32:
		f.rows, f.cols = r.shape()
	}
	if r.err != nil {
		return field{}
	}
	get := getWords
	switch kind {
	case kindInts:
		get = func(dst []uint64, p []byte) ([]uint64, bool) {
			v := int64(binary.LittleEndian.Uint64(p))
			return append(dst, uint64(v)), v >= math.MinInt32 && v <= maxLen
		}
	case kindDense32:
		get = func(dst []uint64, p []byte) ([]uint64, bool) {
			return append(dst, uint64(binary.LittleEndian.Uint32(p))), true
		}
	}
	r.elements(&f, f.rows*f.cols, elemSizes[kind], get)
	return f
}

// decodeKind runs the codec's decoder for kind and flattens its result
// the way refReader.decode does.
func decodeKind(d *Reader, kind int) field {
	f := field{rows: 1}
	switch kind {
	case kindFloats:
		v := d.Floats()
		f.cols = len(v)
		for _, x := range v {
			f.bits = append(f.bits, math.Float64bits(x))
		}
	case kindComplexes:
		v := d.Complexes()
		f.cols = len(v)
		for _, x := range v {
			f.bits = append(f.bits, math.Float64bits(real(x)), math.Float64bits(imag(x)))
		}
	case kindInts:
		v := d.Ints()
		f.cols = len(v)
		for _, x := range v {
			f.bits = append(f.bits, uint64(x))
		}
	case kindDense:
		if m := d.Dense(); m != nil {
			f.rows, f.cols = m.R, m.C
			for _, x := range m.Data {
				f.bits = append(f.bits, math.Float64bits(x))
			}
		}
	case kindDense32:
		if m := d.Dense32(); m != nil {
			f.rows, f.cols = m.R, m.C
			for _, x := range m.Data {
				f.bits = append(f.bits, uint64(math.Float32bits(x)))
			}
		}
	}
	if d.Err() != nil {
		return field{}
	}
	return f
}

// frame wraps body in a valid header and CRC trailer.
func frame(body []byte) []byte {
	b := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[len(magic):], Version)
	b = append(b, body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// FuzzReaderSlices: a checksum-valid stream holding two bulk fields of
// fuzzed kinds decodes exactly as the per-element reference decodes it,
// element for element and bit for bit, or fails as the reference does.
// The one allowed difference is when an Ints element is out of range
// and the stream ends inside that element's chunk: the chunked decoder
// reads the chunk before it checks the elements, so it reports
// io.ErrUnexpectedEOF where the reference reports ErrCorrupt.
func FuzzReaderSlices(f *testing.F) {
	seed := func(kinds uint8, write func(*Writer)) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		write(w)
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(kinds, buf.Bytes()[len(magic)+4:buf.Len()-4])
	}
	nan := math.Float64frombits(0x7ff8_0000_0000_0123)
	seed(kindFloats+numKinds*kindInts, func(w *Writer) {
		w.Floats([]float64{1, nan, math.Copysign(0, -1)})
		w.Ints([]int{-1, 0, maxLen})
	})
	seed(kindComplexes+numKinds*kindDense, func(w *Writer) {
		w.Complexes([]complex128{1i, complex(nan, -2)})
		w.Dense(mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	})
	seed(kindDense32+numKinds*kindFloats, func(w *Writer) {
		w.Dense32(&mat.Dense32{R: 2, C: 2, Data: []float32{1, -0.5, 2, float32(math.Inf(1))}})
		w.Floats(nil)
	})
	seed(kindInts+numKinds*kindFloats, func(w *Writer) { // crosses a chunk
		w.Ints(sampleInts(chunkLen/8 + 3))
		w.Floats([]float64{7})
	})

	f.Fuzz(func(t *testing.T, kinds uint8, body []byte) {
		stream := frame(body)
		d, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("framed stream refused: %v", err)
		}
		// The decoders cannot tell the trailer from the body, so the
		// reference reads on into it too.
		ref := &refReader{b: stream[len(magic)+4:]}
		for _, kind := range []int{int(kinds) % numKinds, int(kinds) / numKinds % numKinds} {
			want := ref.decode(kind)
			got := decodeKind(d, kind)
			switch {
			case ref.err == nil:
				if d.Err() != nil {
					t.Fatalf("kind %d: reference decodes, codec fails: %v", kind, d.Err())
				}
				if got.rows != want.rows || got.cols != want.cols || len(got.bits) != len(want.bits) {
					t.Fatalf("kind %d: shape %d×%d (%d elements), want %d×%d (%d)",
						kind, got.rows, got.cols, len(got.bits), want.rows, want.cols, len(want.bits))
				}
				for i := range want.bits {
					if got.bits[i] != want.bits[i] {
						t.Fatalf("kind %d element %d: bits %#x, want %#x", kind, i, got.bits[i], want.bits[i])
					}
				}
			case errors.Is(ref.err, io.ErrUnexpectedEOF):
				if !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
					t.Fatalf("kind %d: reference hits the end, codec: %v", kind, d.Err())
				}
				return
			default: // ErrCorrupt
				if errors.Is(d.Err(), ErrCorrupt) {
					return
				}
				if ref.bad < 0 || !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
					t.Fatalf("kind %d: reference ErrCorrupt, codec: %v", kind, d.Err())
				}
				per := chunkLen / elemSizes[kind]
				chunkEnd := want.payload + elemSizes[kind]*min(want.rows*want.cols, (ref.bad/per+1)*per)
				if len(ref.b) >= chunkEnd {
					t.Fatalf("kind %d: element %d out of range and its chunk complete, codec: %v", kind, ref.bad, d.Err())
				}
				return
			}
		}
		if ref.used == len(body) {
			if err := d.Close(); err != nil {
				t.Fatalf("stream fully decoded, trailer refused: %v", err)
			}
		}
	})
}
