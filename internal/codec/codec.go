// Package codec is the versioned binary serialization layer behind
// snapshot/restore of incremental analyzer state: a Writer/Reader pair
// over a fixed little-endian wire format with a magic+version header and
// a CRC-32 trailer, plus typed primitives for the quantities the
// numeric layers persist (ints, floats, complexes, dense matrices).
//
// The format is deliberately dumb — field-sequential, no schema — because
// every producer/consumer pair lives in this repository and the version
// header gates compatibility: a Reader refuses a stream whose version it
// does not know, so format changes bump Version and (when needed) branch
// on it during decode. The trailer CRC turns truncation and bit rot into
// clean errors instead of silently corrupt analyzers. See DESIGN.md §8.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"imrdmd/internal/mat"
)

// Version is the current snapshot format version, written into every
// header. Bump it when the field layout of any encoded section changes.
//
// Version history:
//
//	1 — initial format (PR 4..8): all-f64 raw history, unbounded driftLog.
//	2 — flat-horizon streaming (PR 9): tiered raw history (f32 cold
//	    chunks + f64 hot tail), windowed-pipeline options, bounded
//	    driftLog. Readers still decode version-1 streams.
const Version = 2

// magic identifies an imrdmd snapshot stream.
const magic = "IMRDSNAP"

// maxLen bounds every decoded length/dimension (element count sanity
// check); chunkLen bounds the capacity any single decode allocates ahead
// of the data actually read, so a corrupt or hostile stream claiming a
// huge length cannot drive a multi-gigabyte allocation from a tiny input
// — slices grow with consumed bytes and a lying length dies at
// io.ErrUnexpectedEOF after at most one chunk.
const (
	maxLen   = 1 << 30
	chunkLen = 1 << 16
)

// Sentinel errors, matchable with errors.Is through the wrapped errors
// the Reader returns.
var (
	// ErrMagic reports a stream that is not an imrdmd snapshot at all.
	ErrMagic = errors.New("codec: not an imrdmd snapshot")
	// ErrVersion reports a snapshot written by an unknown format version.
	ErrVersion = errors.New("codec: unsupported snapshot version")
	// ErrChecksum reports a trailer CRC mismatch (truncation or corruption).
	ErrChecksum = errors.New("codec: snapshot checksum mismatch")
	// ErrCorrupt reports a structurally invalid field (negative or
	// implausibly large length, malformed shape).
	ErrCorrupt = errors.New("codec: corrupt snapshot field")
)

// Writer serializes primitives to an underlying io.Writer. Errors latch:
// after the first write error every call is a no-op and Close returns it.
// Callers therefore write whole sections unchecked and test once.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	buf [8]byte
	err error
}

// NewWriter starts a snapshot stream on w at the current Version, writing
// the magic/version header immediately.
func NewWriter(w io.Writer) *Writer {
	return NewWriterVersion(w, Version)
}

// NewWriterVersion starts a snapshot stream at an explicit format version
// — the hook compatibility tests use to produce historical streams. It
// only stamps the header; the caller must emit the field layout that
// version defines.
func NewWriterVersion(w io.Writer, version uint32) *Writer {
	e := &Writer{w: w, crc: crc32.NewIEEE()}
	e.raw([]byte(magic))
	e.U32(version)
	return e
}

// Err returns the first error encountered, if any.
func (e *Writer) Err() error { return e.err }

// Close writes the CRC-32 trailer over everything emitted so far and
// returns the latched error state. It does not close the underlying
// writer.
func (e *Writer) Close() error {
	if e.err != nil {
		return e.err
	}
	sum := e.crc.Sum32()
	binary.LittleEndian.PutUint32(e.buf[:4], sum)
	if _, err := e.w.Write(e.buf[:4]); err != nil {
		e.err = err
	}
	return e.err
}

// raw writes b to the stream and folds it into the running CRC.
func (e *Writer) raw(b []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(b); err != nil {
		e.err = err
		return
	}
	e.crc.Write(b)
}

// U32 writes a fixed 32-bit unsigned value.
func (e *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.raw(e.buf[:4])
}

// Int writes an int as a signed 64-bit value.
func (e *Writer) Int(v int) { e.I64(int64(v)) }

// I64 writes a signed 64-bit value.
func (e *Writer) I64(v int64) {
	binary.LittleEndian.PutUint64(e.buf[:8], uint64(v))
	e.raw(e.buf[:8])
}

// Bool writes a boolean as one byte.
func (e *Writer) Bool(v bool) {
	e.buf[0] = 0
	if v {
		e.buf[0] = 1
	}
	e.raw(e.buf[:1])
}

// Float writes a float64 by bit pattern (NaN payloads and signed zeros
// survive the round trip exactly).
func (e *Writer) Float(v float64) {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(v))
	e.raw(e.buf[:8])
}

// Complex writes a complex128 as its real and imaginary parts.
func (e *Writer) Complex(v complex128) {
	e.Float(real(v))
	e.Float(imag(v))
}

// String writes a length-prefixed UTF-8 string.
func (e *Writer) String(s string) {
	e.Int(len(s))
	e.raw([]byte(s))
}

// Ints writes a length-prefixed []int.
func (e *Writer) Ints(v []int) {
	e.Int(len(v))
	for _, x := range v {
		e.Int(x)
	}
}

// Floats writes a length-prefixed []float64.
func (e *Writer) Floats(v []float64) {
	e.Int(len(v))
	for _, x := range v {
		e.Float(x)
	}
}

// Complexes writes a length-prefixed []complex128.
func (e *Writer) Complexes(v []complex128) {
	e.Int(len(v))
	for _, x := range v {
		e.Complex(x)
	}
}

// Dense writes a matrix as its shape followed by the row-major payload.
// Strided matrices (views, capacity-padded growers) serialize tightly:
// only the R×C elements hit the wire, so the decoded matrix is packed
// regardless of the writer's in-memory layout.
func (e *Writer) Dense(m *mat.Dense) {
	e.Int(m.R)
	e.Int(m.C)
	for i := 0; i < m.R; i++ {
		for _, x := range m.Row(i) {
			e.Float(x)
		}
	}
}

// Dense32 writes a float32 matrix as its shape followed by the row-major
// payload of 32-bit patterns — the cold-tier history sections of format
// version ≥ 2. Like Dense, strided inputs serialize tightly.
func (e *Writer) Dense32(m *mat.Dense32) {
	e.Int(m.R)
	e.Int(m.C)
	for i := 0; i < m.R; i++ {
		for _, x := range m.Row(i) {
			e.U32(math.Float32bits(x))
		}
	}
}

// Reader deserializes a stream written by Writer. Like the Writer, errors
// latch: after the first failure every getter returns a zero value, so
// callers decode whole sections and check Err (or Close) once. A short
// read surfaces as io.ErrUnexpectedEOF — the truncated-snapshot error.
type Reader struct {
	r       io.Reader
	crc     hash.Hash32
	buf     [8]byte
	version uint32
	err     error
}

// NewReader opens a snapshot stream, validating the magic and version
// header before returning. Every version from 1 through Version is
// accepted; decoders branch on Version() for layouts that changed.
func NewReader(r io.Reader) (*Reader, error) {
	d := &Reader{r: r, crc: crc32.NewIEEE()}
	var hdr [len(magic)]byte
	d.raw(hdr[:])
	if d.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMagic, d.err)
	}
	if string(hdr[:]) != magic {
		return nil, ErrMagic
	}
	v := d.U32()
	if d.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrVersion, d.err)
	}
	if v < 1 || v > Version {
		return nil, fmt.Errorf("%w: got %d, can read 1..%d", ErrVersion, v, Version)
	}
	d.version = v
	return d, nil
}

// Version reports the format version stamped in the stream header; decode
// paths branch on it for sections whose layout changed across versions.
func (d *Reader) Version() uint32 { return d.version }

// Err returns the first error encountered, if any.
func (d *Reader) Err() error { return d.err }

// fail latches err (once) and returns the zero-value-producing state.
func (d *Reader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Close reads and verifies the CRC-32 trailer, returning the latched
// error state. Call it after the last field of the last section.
func (d *Reader) Close() error {
	if d.err != nil {
		return d.err
	}
	want := d.crc.Sum32() // snapshot before the trailer bytes perturb it
	if _, err := io.ReadFull(d.r, d.buf[:4]); err != nil {
		d.fail(fmt.Errorf("%w: %w", ErrChecksum, noEOF(err)))
		return d.err
	}
	if got := binary.LittleEndian.Uint32(d.buf[:4]); got != want {
		d.fail(fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want))
	}
	return d.err
}

// raw fills b from the stream and folds it into the running CRC.
func (d *Reader) raw(b []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail(noEOF(err))
		return
	}
	d.crc.Write(b)
}

// noEOF normalizes a mid-field io.EOF to io.ErrUnexpectedEOF: any EOF
// while a field is owed means the snapshot was truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// U32 reads a fixed 32-bit unsigned value.
func (d *Reader) U32() uint32 {
	d.raw(d.buf[:4])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(d.buf[:4])
}

// I64 reads a signed 64-bit value.
func (d *Reader) I64() int64 {
	d.raw(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(d.buf[:8]))
}

// Int reads an int, rejecting values outside the sane length range.
func (d *Reader) Int() int {
	v := d.I64()
	if d.err == nil && (v < math.MinInt32 || v > maxLen) {
		d.fail(fmt.Errorf("%w: int %d out of range", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

// Len reads a non-negative length/dimension.
func (d *Reader) Len() int {
	v := d.Int()
	if d.err == nil && v < 0 {
		d.fail(fmt.Errorf("%w: negative length %d", ErrCorrupt, v))
		return 0
	}
	return v
}

// Bool reads a boolean.
func (d *Reader) Bool() bool {
	d.raw(d.buf[:1])
	return d.err == nil && d.buf[0] != 0
}

// Float reads a float64.
func (d *Reader) Float() float64 {
	d.raw(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8]))
}

// Complex reads a complex128.
func (d *Reader) Complex() complex128 {
	re := d.Float()
	im := d.Float()
	return complex(re, im)
}

// String reads a length-prefixed string.
func (d *Reader) String() string {
	n := d.Len()
	if d.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, 0, minInt(n, chunkLen))
	var buf [chunkLen]byte
	for len(b) < n && d.err == nil {
		k := minInt(n-len(b), chunkLen)
		d.raw(buf[:k])
		b = append(b, buf[:k]...)
	}
	if d.err != nil {
		return ""
	}
	return string(b)
}

// decodeSlice reads n elements via get, growing the result with the
// consumed input (capacity starts at one chunk, not at the claimed n).
func decodeSlice[T any](d *Reader, n int, get func() T) []T {
	v := make([]T, 0, minInt(n, chunkLen))
	for len(v) < n && d.err == nil {
		v = append(v, get())
	}
	if d.err != nil {
		return nil
	}
	return v
}

// Ints reads a length-prefixed []int.
func (d *Reader) Ints() []int {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	return decodeSlice(d, n, d.Int)
}

// Floats reads a length-prefixed []float64.
func (d *Reader) Floats() []float64 {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	return decodeSlice(d, n, d.Float)
}

// Complexes reads a length-prefixed []complex128.
func (d *Reader) Complexes() []complex128 {
	n := d.Len()
	if d.err != nil {
		return nil
	}
	return decodeSlice(d, n, d.Complex)
}

// Dense reads a matrix written by Writer.Dense.
func (d *Reader) Dense() *mat.Dense {
	r := d.Len()
	c := d.Len()
	if d.err != nil {
		return nil
	}
	if r > 0 && c > maxLen/r {
		d.fail(fmt.Errorf("%w: matrix shape %d×%d too large", ErrCorrupt, r, c))
		return nil
	}
	data := decodeSlice(d, r*c, d.Float)
	if d.err != nil {
		return nil
	}
	return &mat.Dense{R: r, C: c, Data: data}
}

// Dense32 reads a float32 matrix written by Writer.Dense32.
func (d *Reader) Dense32() *mat.Dense32 {
	r := d.Len()
	c := d.Len()
	if d.err != nil {
		return nil
	}
	if r > 0 && c > maxLen/r {
		d.fail(fmt.Errorf("%w: matrix shape %d×%d too large", ErrCorrupt, r, c))
		return nil
	}
	data := decodeSlice(d, r*c, func() float32 {
		return math.Float32frombits(d.U32())
	})
	if d.err != nil {
		return nil
	}
	return &mat.Dense32{R: r, C: c, Data: data}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
