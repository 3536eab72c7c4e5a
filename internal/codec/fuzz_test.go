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
// DenseSegments also keeps the segments it decoded into.
type field struct {
	rows, cols int
	bits       []uint64
	payload    int
	segs       []*mat.Dense
}

// elements decodes n elements of elemSize bytes, appending each one's
// words through get; the first element get rejects fails the field.
func (r *refReader) elements(f *field, n, elemSize int, get func([]uint64, []byte) ([]uint64, bool)) {
	f.payload = r.used
	for i := 0; i < n && r.err == nil; i++ {
		p := r.take(elemSize)
		if p == nil {
			return
		}
		var ok bool
		if f.bits, ok = get(f.bits, p); !ok {
			r.err = ErrCorrupt
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
	kindDenseSegments
	numKinds
)

var elemSizes = [numKinds]int{8, 16, 8, 8, 4, 8}

func (r *refReader) decode(kind int) field {
	f := field{rows: 1}
	switch kind {
	case kindFloats, kindComplexes, kindInts:
		f.cols = r.length()
	case kindDense, kindDense32, kindDenseSegments:
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
// the way refReader.decode does; DenseSegments decodes into segments of
// width segW, which must come back packed at their exact widths.
func decodeKind(t *testing.T, d *Reader, kind, segW int) field {
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
	case kindDenseSegments:
		f.rows, f.cols, f.segs = d.DenseSegments(segW)
		for k, s := range f.segs {
			if width := min(segW, f.cols-k*segW); s.R != f.rows || s.C != width || len(s.Data) != f.rows*width {
				t.Fatalf("segment %d is %d×%d (len %d), want packed %d×%d", k, s.R, s.C, len(s.Data), f.rows, width)
			}
		}
		for i := 0; i < f.rows && len(f.segs) > 0; i++ {
			for _, s := range f.segs {
				for _, x := range s.Row(i) {
					f.bits = append(f.bits, math.Float64bits(x))
				}
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

// sizedReader hands out its bytes in reads whose sizes cycle through
// sizes, 1+s² bytes for each s: from one byte to just under a block, so
// a fuzzed size list puts the Reader's refills anywhere in a field. It
// hides its length, so the decoders take their grow-as-read path.
type sizedReader struct {
	b     []byte
	sizes []byte
	k     int
}

func (r *sizedReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	s := int(r.sizes[r.k%len(r.sizes)])
	r.k++
	n := copy(p[:min(len(p), 1+s*s)], r.b)
	r.b = r.b[n:]
	return n, nil
}

// fuzzSource is the stream FuzzReaderSlices decodes: a bytes.Reader,
// which reports its length, when sizes is empty, else a sizedReader.
func fuzzSource(stream, sizes []byte) io.Reader {
	if len(sizes) == 0 {
		return bytes.NewReader(stream)
	}
	return &sizedReader{b: stream, sizes: sizes}
}

// FuzzReaderSlices: a checksum-valid stream holding two bulk fields of
// fuzzed kinds decodes exactly as the per-element reference decodes it,
// element for element and bit for bit, or fails as the reference does,
// whatever read sizes (sizes) the source hands the stream out in. The
// block decoder checks each element as soon as its bytes are in the
// block, so an Ints element out of range fails with ErrCorrupt even when
// the stream ends right after it, as in the reference.
func FuzzReaderSlices(f *testing.F) {
	seed := func(kinds uint8, sizes []byte, write func(*Writer)) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		write(w)
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(kinds, buf.Bytes()[len(magic)+4:buf.Len()-4], sizes)
	}
	nan := math.Float64frombits(0x7ff8_0000_0000_0123)
	seed(kindFloats+numKinds*kindInts, nil, func(w *Writer) {
		w.Floats([]float64{1, nan, math.Copysign(0, -1)})
		w.Ints([]int{-1, 0, maxLen})
	})
	seed(kindComplexes+numKinds*kindDense, []byte{0, 2, 1}, func(w *Writer) {
		w.Complexes([]complex128{1i, complex(nan, -2)})
		w.Dense(mat.NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6}))
	})
	seed(kindDense32+numKinds*kindFloats, nil, func(w *Writer) {
		w.Dense32(&mat.Dense32{R: 2, C: 2, Data: []float32{1, -0.5, 2, float32(math.Inf(1))}})
		w.Floats(nil)
	})
	seed(kindInts+numKinds*kindFloats, nil, func(w *Writer) { // crosses a block
		w.Ints(sampleInts(chunkLen/8 + 3))
		w.Floats([]float64{7})
	})
	seed(kindInts+numKinds*kindFloats, []byte{255, 3, 90}, func(w *Writer) { // refills mid-element
		w.Ints(sampleInts(chunkLen/8 + 3))
		w.Floats([]float64{7})
	})
	seed(kindDenseSegments+numKinds*kindDenseSegments+2*numKinds*numKinds, nil, func(w *Writer) {
		w.Dense(mat.NewDenseData(2, 7, sampleFloats(14))) // segments 3, 3, 1
		w.Dense(mat.NewDenseData(3, 0, nil))
	})

	f.Fuzz(func(t *testing.T, kinds uint8, body, sizes []byte) {
		stream := frame(body)
		d, err := NewReader(fuzzSource(stream, sizes))
		if err != nil {
			t.Fatalf("framed stream refused: %v", err)
		}
		// The decoders cannot tell the trailer from the body, so the
		// reference reads on into it too.
		ref := &refReader{b: stream[len(magic)+4:]}
		segW := 1 + int(kinds)/(numKinds*numKinds)
		for _, kind := range []int{int(kinds) % numKinds, int(kinds) / numKinds % numKinds} {
			want := ref.decode(kind)
			got := decodeKind(t, d, kind, segW)
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
				if kind == kindDenseSegments {
					// Writing the segments back reproduces the field's bytes.
					var buf bytes.Buffer
					w := NewWriter(&buf)
					w.DenseSegments(got.rows, got.cols, got.segs)
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					enc := buf.Bytes()[len(magic)+4 : buf.Len()-4]
					if !bytes.Equal(enc, ref.b[want.payload-16:ref.used]) {
						t.Fatalf("segments re-encode to %d bytes that differ from the field's %d", len(enc), ref.used-want.payload+16)
					}
				}
			case errors.Is(ref.err, io.ErrUnexpectedEOF):
				if !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
					t.Fatalf("kind %d: reference hits the end, codec: %v", kind, d.Err())
				}
				return
			default: // ErrCorrupt
				if !errors.Is(d.Err(), ErrCorrupt) {
					t.Fatalf("kind %d: reference ErrCorrupt, codec: %v", kind, d.Err())
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
