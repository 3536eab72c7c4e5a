package codec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"imrdmd/internal/mat"
)

// splitReader hands out b in reads that end at the given offsets, then
// at its end.
type splitReader struct {
	b    []byte
	at   int
	cuts []int
}

func (s *splitReader) Read(p []byte) (int, error) {
	if s.at == len(s.b) {
		return 0, io.EOF
	}
	end := len(s.b)
	for _, c := range s.cuts {
		if c > s.at {
			end = min(end, c)
			break
		}
	}
	n := copy(p, s.b[s.at:end])
	s.at += n
	return n, nil
}

// TestReaderShortReads: the sample stream decodes to the same values
// whatever read sizes its source hands it out in — one byte at a time,
// half of each request, the last bytes together with io.EOF, or reads
// that end inside the trailer — and with junk after the trailer, which
// the block reader may read but never decodes.
func TestReaderShortReads(t *testing.T) {
	full := encodeSample(t)
	want, err := sampleValues(mustReader(t, bytes.NewReader(full)))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]io.Reader{
		"OneByteReader":    iotest.OneByteReader(bytes.NewReader(full)),
		"HalfReader":       iotest.HalfReader(bytes.NewReader(full)),
		"DataErrReader":    iotest.DataErrReader(onlyReader{bytes.NewReader(full)}),
		"trailer refill":   &splitReader{b: full, cuts: []int{3, 17, 101, len(full) - 3, len(full) - 1}},
		"junk after":       bytes.NewReader(append(append([]byte(nil), full...), bytes.Repeat([]byte{0xa5}, chunkLen+5)...)),
		"junk after, read": onlyReader{bytes.NewReader(append(append([]byte(nil), full...), "junk"...))},
	}
	for name, src := range sources {
		got, err := sampleValues(mustReader(t, src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: decoded\n%s\nwant\n%s", name, got, want)
		}
	}
}

// emptyReader returns no bytes and no error, forever.
type emptyReader struct{}

func (emptyReader) Read([]byte) (int, error) { return 0, nil }

// TestReaderNoProgress: a source that returns no bytes and no error
// fails the read with io.ErrNoProgress instead of spinning.
func TestReaderNoProgress(t *testing.T) {
	if _, err := NewReader(emptyReader{}); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("want io.ErrNoProgress, got %v", err)
	}
}

// TestPortablePathsMatchNative: the float64, complex128 and float32
// sections — Floats, Complexes, Dense and the cold tier's Dense32 — write
// the same bytes and decode the same bits on the memmove path of a
// little-endian host and on the per-element path, in every combination
// of writer and reader path, from a source with and without a length.
func TestPortablePathsMatchNative(t *testing.T) {
	defer func(v bool) { nativeLE = v }(nativeLE)
	n := chunkLen/8 + 3 // crosses a block
	fs, cs := sampleFloats(n), sampleComplexes(n)
	r, c := factor(n)
	dense := mat.NewDenseData(r, c, sampleFloats(n))
	r32, c32 := factor(2 * n)
	m32 := &mat.Dense32{R: r32, C: c32, Data: sampleFloat32s(2 * n)}

	write := func(native bool) []byte {
		nativeLE = native
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Floats(fs)
		w.Complexes(cs)
		w.Dense(dense)
		w.Dense32(m32)
		w.Int(7)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	native, portable := write(true), write(false)
	if !bytes.Equal(native, portable) {
		t.Fatal("portable writer bytes differ from the native writer's")
	}
	for run := 0; run < 4; run++ {
		nativeLE = run < 2
		var src io.Reader = bytes.NewReader(portable)
		if run%2 == 1 {
			src = onlyReader{src}
		}
		rd := mustReader(t, src)
		gotF, gotC, gotD, got32, tail := rd.Floats(), rd.Complexes(), rd.Dense(), rd.Dense32(), rd.Int()
		if err := rd.Close(); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if tail != 7 || len(gotF) != n || len(gotC) != n || gotD.R != r || gotD.C != c || got32.R != r32 || got32.C != c32 {
			t.Fatalf("run %d: shapes %d, %d, %d×%d, %d×%d, tail %d", run, len(gotF), len(gotC), gotD.R, gotD.C, got32.R, got32.C, tail)
		}
		for i := range fs {
			if !sameBits(gotF[i], fs[i]) || !sameBits(gotD.Data[i], dense.Data[i]) ||
				!sameBits(real(gotC[i]), real(cs[i])) || !sameBits(imag(gotC[i]), imag(cs[i])) {
				t.Fatalf("run %d element %d differs", run, i)
			}
		}
		for i, x := range m32.Data {
			if math.Float32bits(got32.Data[i]) != math.Float32bits(x) {
				t.Fatalf("run %d: Dense32 element %d: %v, want %v", run, i, got32.Data[i], x)
			}
		}
	}
}

// nodeStream writes n tree nodes the way a snapshot does — five header
// ints, a mode count, then per mode a p-element Φ column, three complex
// scalars and two floats — each with one mode, as longrun_tiered's
// nodes mostly have.
func nodeStream(b *testing.B, n, p int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	phi := sampleComplexes(p)
	for i := 0; i < n; i++ {
		for _, v := range []int{3, i, i + 64, 2, 5, 1} {
			w.Int(v)
		}
		w.Complexes(phi)
		w.Complex(complex(0.99, 0.01))
		w.Complex(complex(-0.01, 0.5))
		w.Complex(complex(3, -4))
		w.Float(0.002)
		w.Float(1.5e3)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReaderScalars decodes 5,445 P=48 nodes, longrun_tiered's tree,
// from a source without a length, as a restore body arrives: eleven
// scalar fields and one short bulk field per node.
func BenchmarkReaderScalars(b *testing.B) {
	const nodes = 5445
	stream := nodeStream(b, nodes, 48)
	b.SetBytes(int64(len(stream)))
	for b.Loop() {
		r, err := NewReader(onlyReader{bytes.NewReader(stream)})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			for k := 0; k < 5; k++ {
				r.Int()
			}
			for m := r.Len(); m > 0; m-- {
				r.Complexes()
				r.Complex()
				r.Complex()
				r.Complex()
				r.Float()
				r.Float()
			}
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
