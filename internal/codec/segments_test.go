package codec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"imrdmd/internal/mat"
)

// onlyReader hides a source's Len, so decoders take their grow-as-read
// path.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// splitCols returns m's columns as consecutive w-wide segments, each a
// packed r×w matrix; the last is zero-padded past m's columns, the way a
// chunked store's open tail is.
func splitCols(m *mat.Dense, w int) []*mat.Dense {
	var segs []*mat.Dense
	for lo := 0; lo < m.C; lo += w {
		s := mat.NewDense(m.R, w)
		for i := 0; i < m.R; i++ {
			copy(s.Row(i), m.Row(i)[lo:min(lo+w, m.C)])
		}
		segs = append(segs, s)
	}
	return segs
}

// TestDenseSegmentsRoundTrip: a matrix written from column segments is
// byte-identical to Writer.Dense of the assembled matrix, and
// Reader.DenseSegments hands back exact-width packed segments with every
// bit intact, whether or not the source reports its length, on the
// in-place path and on the portable one.
func TestDenseSegmentsRoundTrip(t *testing.T) {
	defer func(v bool) { nativeLE = v }(nativeLE)
	per := chunkLen / 8
	shapes := []struct{ r, c, w int }{
		{3, 5, 8},       // one narrow segment
		{4, 16, 8},      // whole segments only
		{5, 17, 8},      // a one-column tail
		{2, per + 1, 7}, // rows cross a chunk
		{per/13 + 1, 13, 4},
		{1, 1, 1},
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%dx%d/w=%d", sh.r, sh.c, sh.w), func(t *testing.T) {
			m := mat.NewDenseData(sh.r, sh.c, sampleFloats(sh.r*sh.c))
			var want, got bytes.Buffer
			we := NewWriter(&want)
			we.Dense(m)
			we.Int(7)
			ge := NewWriter(&got)
			ge.DenseSegments(sh.r, sh.c, splitCols(m, sh.w))
			ge.Int(7)
			if err := errors.Join(we.Close(), ge.Close()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("DenseSegments bytes differ from Dense")
			}
			for run := 0; run < 4; run++ {
				var src io.Reader = bytes.NewReader(got.Bytes())
				if run%2 == 1 {
					src = onlyReader{src}
				}
				nativeLE = run < 2
				rd, err := NewReader(src)
				if err != nil {
					t.Fatal(err)
				}
				r, c, segs := rd.DenseSegments(sh.w)
				if tail := rd.Int(); tail != 7 {
					t.Fatalf("trailing Int = %d", tail)
				}
				if err := rd.Close(); err != nil {
					t.Fatal(err)
				}
				if r != sh.r || c != sh.c || len(segs) != (sh.c+sh.w-1)/sh.w {
					t.Fatalf("shape %d×%d in %d segments", r, c, len(segs))
				}
				for k, s := range segs {
					width := min(sh.w, sh.c-k*sh.w)
					if s.R != r || s.C != width || s.Stride != 0 || len(s.Data) != r*width || cap(s.Data) != r*width {
						t.Fatalf("segment %d: %d×%d stride %d len %d cap %d, want packed %d×%d",
							k, s.R, s.C, s.Stride, len(s.Data), cap(s.Data), r, width)
					}
					for i := 0; i < r; i++ {
						for j := 0; j < width; j++ {
							if !sameBits(s.At(i, j), m.At(i, k*sh.w+j)) {
								t.Fatalf("segment %d (%d,%d): %v, want %v", k, i, j, s.At(i, j), m.At(i, k*sh.w+j))
							}
						}
					}
				}
			}
		})
	}
}

// TestDenseSegmentsFromBytesAllocatesOnce: decoding a Theta-shaped hot
// tier into 256-column segments from a bytes.Reader allocates its
// elements once — within 5% of the payload.
func TestDenseSegmentsFromBytesAllocatesOnce(t *testing.T) {
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
	_, _, segs := r.DenseSegments(256)
	runtime.ReadMemStats(&after)
	if segs == nil {
		t.Fatal(r.Err())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; float64(grown) > 1.05*float64(payload) {
		t.Fatalf("decoding a %d MiB Dense into segments allocated %d MiB", payload>>20, grown>>20)
	}
}

// TestDenseSegmentsLyingShapeBounded: a stream that claims far more
// elements than the 1 MiB it carries — as many rows, or one row of as
// many columns — allocates a small multiple of what it carried from a
// source that hides its length, and fails with io.ErrUnexpectedEOF.
func TestDenseSegmentsLyingShapeBounded(t *testing.T) {
	carried := 1 << 20
	for _, claim := range []struct{ r, c int }{{1 << 20, 300}, {1, 1 << 26}, {1 << 26, 1}} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Int(claim.r)
		w.Int(claim.c)
		for i := 0; i < carried/8; i++ {
			w.Float(float64(i))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(onlyReader{bytes.NewReader(buf.Bytes())})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, segs := r.DenseSegments(256); segs != nil {
			t.Fatalf("claim %d×%d: truncated matrix decoded", claim.r, claim.c)
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(4*carried+2*chunkLen) {
			t.Fatalf("claim %d×%d: carrying %d KiB allocated %d KiB", claim.r, claim.c, carried>>10, grown>>10)
		}
		if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
			t.Fatalf("claim %d×%d: want ErrUnexpectedEOF, got %v", claim.r, claim.c, r.Err())
		}
	}
}

func BenchmarkReaderDenseSegments(b *testing.B) {
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
		if _, _, segs := r.DenseSegments(256); segs == nil {
			b.Fatal(r.Err())
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
