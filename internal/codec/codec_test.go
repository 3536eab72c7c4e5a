package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"

	"imrdmd/internal/mat"
)

// encodeSample writes one of every primitive and returns the stream.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(-42)
	w.I64(1 << 40)
	w.Bool(true)
	w.Bool(false)
	w.Float(math.Pi)
	w.Float(math.Copysign(0, -1))
	w.Complex(complex(1.5, -2.5))
	w.String("mixed")
	w.Ints([]int{0, 3, 7})
	w.Floats([]float64{1, 2.5, -3e-9})
	w.Complexes([]complex128{1i, 2 - 3i})
	m := mat.NewDense(3, 2)
	for i := range m.Data {
		m.Data[i] = float64(i) * 0.5
	}
	w.Dense(m)
	w.Dense(mat.NewDense(4, 0)) // degenerate shapes must round-trip too
	m32 := mat.NewDense32(2, 3)
	for i := range m32.Data {
		m32.Data[i] = float32(i) * 0.25
	}
	w.Dense32(m32)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	r, err := NewReader(bytes.NewReader(encodeSample(t)))
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Int(); v != -42 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.I64(); v != 1<<40 {
		t.Fatalf("I64 = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip broken")
	}
	if v := r.Float(); v != math.Pi {
		t.Fatalf("Float = %v", v)
	}
	if v := r.Float(); math.Signbit(v) == false || v != 0 {
		t.Fatalf("signed zero lost: %v", v)
	}
	if v := r.Complex(); v != complex(1.5, -2.5) {
		t.Fatalf("Complex = %v", v)
	}
	if v := r.String(); v != "mixed" {
		t.Fatalf("String = %q", v)
	}
	ints := r.Ints()
	if len(ints) != 3 || ints[1] != 3 {
		t.Fatalf("Ints = %v", ints)
	}
	fs := r.Floats()
	if len(fs) != 3 || fs[2] != -3e-9 {
		t.Fatalf("Floats = %v", fs)
	}
	cs := r.Complexes()
	if len(cs) != 2 || cs[1] != 2-3i {
		t.Fatalf("Complexes = %v", cs)
	}
	m := r.Dense()
	if m.R != 3 || m.C != 2 || m.At(2, 1) != 2.5 {
		t.Fatalf("Dense shape/content wrong: %+v", m)
	}
	deg := r.Dense()
	if deg.R != 4 || deg.C != 0 || deg.Data == nil || len(deg.Data) != 0 {
		t.Fatalf("degenerate Dense wrong: %+v", deg)
	}
	m32 := r.Dense32()
	if m32.R != 2 || m32.C != 3 || m32.At(1, 2) != 1.25 {
		t.Fatalf("Dense32 shape/content wrong: %+v", m32)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTASNAPxxxx"))); !errors.Is(err, ErrMagic) {
		t.Fatalf("want ErrMagic, got %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrMagic) {
		t.Fatalf("empty stream: want ErrMagic, got %v", err)
	}
}

// TestVersionMismatch: a reader accepts only the current Version; the
// retired version 1 fails at the header like any unknown one.
func TestVersionMismatch(t *testing.T) {
	for _, bad := range []uint32{0, 1, Version + 1, Version + 7} {
		var buf bytes.Buffer
		buf.WriteString(magic)
		var v [4]byte
		binary.LittleEndian.PutUint32(v[:], bad)
		buf.Write(v[:])
		if _, err := NewReader(&buf); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: want ErrVersion, got %v", bad, err)
		}
	}
}

// TestTruncated: every proper prefix of the sample stream fails — at
// the header with ErrMagic or ErrVersion, in a field with
// io.ErrUnexpectedEOF, in the trailer with ErrChecksum — from a source
// that reports its length, one that does not, and one that hands out a
// byte per read. None decodes, none panics.
func TestTruncated(t *testing.T) {
	full := encodeSample(t)
	for cut := 0; cut < len(full); cut++ {
		for k, src := range []io.Reader{
			bytes.NewReader(full[:cut]),
			onlyReader{bytes.NewReader(full[:cut])},
			iotest.OneByteReader(bytes.NewReader(full[:cut])),
		} {
			r, err := NewReader(src)
			if err != nil {
				if cut >= len(magic)+4 || !(errors.Is(err, ErrMagic) || errors.Is(err, ErrVersion)) {
					t.Fatalf("cut %d source %d: header error %v", cut, k, err)
				}
				continue
			}
			_, err = sampleValues(r)
			if err == nil {
				t.Fatalf("cut %d/%d source %d: truncated stream decoded", cut, len(full), k)
			}
			inTrailer := cut >= len(full)-4
			if !errors.Is(err, io.ErrUnexpectedEOF) || inTrailer != errors.Is(err, ErrChecksum) {
				t.Fatalf("cut %d source %d: %v, want io.ErrUnexpectedEOF (wrapped in ErrChecksum inside the trailer)", cut, k, err)
			}
		}
	}
}

func TestCorruption(t *testing.T) {
	full := encodeSample(t)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 32; trial++ {
		b := append([]byte(nil), full...)
		i := len(magic) + 4 + rng.Intn(len(b)-len(magic)-4) // spare the header
		b[i] ^= 0x40
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			continue
		}
		if _, err := sampleValues(r); err == nil {
			t.Fatalf("bit flip at %d not detected", i)
		}
	}
}

// sampleValues decodes the stream encodeSample writes and renders every
// value it holds, floats by bit pattern, checking the trailer last.
func sampleValues(r *Reader) (string, error) {
	var b bytes.Buffer
	bits := func(v ...float64) {
		for _, x := range v {
			fmt.Fprintf(&b, "%x ", math.Float64bits(x))
		}
	}
	fmt.Fprint(&b, r.Int(), r.I64(), r.Bool(), r.Bool(), " ")
	bits(r.Float(), r.Float())
	c := r.Complex()
	bits(real(c), imag(c))
	fmt.Fprint(&b, r.String(), r.Ints(), " ")
	bits(r.Floats()...)
	for _, c := range r.Complexes() {
		bits(real(c), imag(c))
	}
	for _, m := range []*mat.Dense{r.Dense(), r.Dense()} {
		if m != nil {
			fmt.Fprint(&b, m.R, m.C, " ")
			bits(m.Data...)
		}
	}
	if m := r.Dense32(); m != nil {
		fmt.Fprint(&b, m.R, m.C, m.Data)
	}
	return b.String(), r.Close()
}

func mustReader(t *testing.T, src io.Reader) *Reader {
	t.Helper()
	r, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriterErrLatches(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Int(1)
	w.Floats([]float64{1, 2})
	if err := w.Close(); err == nil {
		t.Fatal("write error not surfaced")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

// TestLyingLengthDoesNotOverallocate: a tiny stream claiming a huge
// slice length must fail at the input's end, not allocate gigabytes up
// front (the restore endpoint feeds attacker-supplied bytes here).
func TestLyingLengthDoesNotOverallocate(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int(1 << 29) // claims a 4 GiB float64 slice...
	w.Float(1)     // ...but carries one element
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
		t.Fatal("truncated huge slice decoded")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
		t.Fatalf("decode of lying length allocated %d MiB", grown>>20)
	}
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", r.Err())
	}
}
