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
	"unsafe"

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
// check). chunkLen is the unit of bulk I/O: slices and matrices move
// through a chunkLen-byte scratch, one underlying Read or Write and one
// CRC pass per chunk, because hash/crc32 takes its CLMUL path only for
// updates of at least 64 bytes and checksums shorter ones a byte at a
// time (DESIGN.md §8). chunkLen also bounds what a decode allocates
// ahead of the data actually read: a corrupt or hostile stream claiming
// a huge length dies at io.ErrUnexpectedEOF after at most one chunk.
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
	w     io.Writer
	crc   hash.Hash32
	buf   [8]byte
	chunk []byte // bulk scratch, chunkLen bytes once allocated
	fill  int    // bytes of chunk not yet written
	err   error
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

// putSlice encodes v into the chunk scratch, elemSize bytes per element,
// writing each chunk as it fills; encode fills dst from src, with
// len(dst) == elemSize*len(src). The last partial chunk stays buffered
// until flush, so a matrix's rows pack into whole chunks however short
// they are.
func putSlice[T any](e *Writer, v []T, elemSize int, encode func(dst []byte, src []T)) {
	if e.chunk == nil {
		e.chunk = make([]byte, chunkLen)
	}
	for len(v) > 0 {
		if e.fill+elemSize > chunkLen {
			e.flush()
		}
		k := min(len(v), (chunkLen-e.fill)/elemSize)
		encode(e.chunk[e.fill:e.fill+k*elemSize], v[:k])
		e.fill += k * elemSize
		v = v[k:]
	}
}

// flush writes the buffered part of the chunk scratch.
func (e *Writer) flush() {
	if e.fill > 0 {
		e.raw(e.chunk[:e.fill])
		e.fill = 0
	}
}

func putInts(dst []byte, src []int) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(x))
	}
}

func putFloats(dst []byte, src []float64) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

func putFloat32s(dst []byte, src []float32) {
	for i, x := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

func putComplexes(dst []byte, src []complex128) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[16*i:], math.Float64bits(real(x)))
		binary.LittleEndian.PutUint64(dst[16*i+8:], math.Float64bits(imag(x)))
	}
}

// Ints writes a length-prefixed []int.
func (e *Writer) Ints(v []int) {
	e.Int(len(v))
	putSlice(e, v, 8, putInts)
	e.flush()
}

// Floats writes a length-prefixed []float64.
func (e *Writer) Floats(v []float64) {
	e.Int(len(v))
	putSlice(e, v, 8, putFloats)
	e.flush()
}

// Complexes writes a length-prefixed []complex128.
func (e *Writer) Complexes(v []complex128) {
	e.Int(len(v))
	putSlice(e, v, 16, putComplexes)
	e.flush()
}

// Dense writes a matrix as its shape followed by the row-major payload.
// Strided matrices (views, capacity-padded growers) serialize tightly:
// only the R×C elements hit the wire, so the decoded matrix is packed
// regardless of the writer's in-memory layout.
func (e *Writer) Dense(m *mat.Dense) {
	e.DenseSegments(m.R, m.C, []*mat.Dense{m})
}

// DenseSegments writes the r×c matrix whose columns are held as
// consecutive column segments — segs[k] holds the next segs[k].C columns,
// the last segment possibly only in part — as exactly the bytes Dense
// writes for the assembled matrix: each row walks across the segments.
// A matrix without rows needs no segments.
func (e *Writer) DenseSegments(r, c int, segs []*mat.Dense) {
	held := 0
	for _, s := range segs {
		if s.R != r {
			panic(fmt.Sprintf("codec: segment of %d rows in a %d-row matrix", s.R, r))
		}
		held += s.C
	}
	if r > 0 && held < c {
		panic(fmt.Sprintf("codec: segments hold %d of %d columns", held, c))
	}
	e.Int(r)
	e.Int(c)
	for i := 0; i < r && c > 0; i++ {
		left := c
		for _, s := range segs {
			n := min(s.C, left)
			putSlice(e, s.Row(i)[:n], 8, putFloats)
			if left -= n; left == 0 {
				break
			}
		}
	}
	e.flush()
}

// Dense32 writes a float32 matrix as its shape followed by the row-major
// payload of 32-bit patterns — the cold-tier history sections of format
// version ≥ 2.
func (e *Writer) Dense32(m *mat.Dense32) {
	e.Int(m.R)
	e.Int(m.C)
	putSlice(e, m.Data[:m.R*m.C], 4, putFloat32s)
	e.flush()
}

// Reader deserializes a stream written by Writer. Like the Writer, errors
// latch: after the first failure every getter returns a zero value, so
// callers decode whole sections and check Err (or Close) once. A short
// read surfaces as io.ErrUnexpectedEOF — the truncated-snapshot error.
type Reader struct {
	r       io.Reader
	crc     hash.Hash32
	buf     [8]byte
	chunk   []byte // bulk scratch, chunkLen bytes once allocated
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
	if d.err != nil {
		return 0
	}
	return d.checkInt(v)
}

// checkInt returns v as an int, or latches ErrCorrupt and returns 0
// when v lies outside [MinInt32, maxLen].
func (d *Reader) checkInt(v int64) int {
	if v < math.MinInt32 || v > maxLen {
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
	return string(decodeSlice(d, n, 1, func(dst, src []byte) { copy(dst, src) }))
}

// scratch returns the reader's chunkLen-byte bulk buffer.
func (d *Reader) scratch() []byte {
	if d.chunk == nil {
		d.chunk = make([]byte, chunkLen)
	}
	return d.chunk
}

// decodeSlice reads n elements of elemSize bytes each, a chunk at a
// time: one raw read (one io.ReadFull, one CRC pass) per chunk, then
// decode fills the chunk's elements dst from its bytes src. The result
// grows only after a chunk's bytes have arrived, by doubling capped at n,
// so its capacity stays within about twice the consumed elements plus
// one chunk — a lying length fails at io.ErrUnexpectedEOF before it can
// drive a large allocation. When the source reports its unread length
// (Len() int, as bytes.Reader does — the sniff net/http makes for
// ContentLength) and the n elements fit in it, they are allocated up
// front instead: the bytes are already in memory, so a lying length
// still cannot allocate more than they take. decode may latch an error
// through d; the chunk it occurs in is the last one read.
func decodeSlice[T any](d *Reader, n, elemSize int, decode func(dst []T, src []byte)) []T {
	if d.err != nil {
		return nil
	}
	buf := d.scratch()
	per := chunkLen / elemSize
	var v []T
	if l, ok := d.r.(interface{ Len() int }); ok && n <= l.Len()/elemSize {
		v = make([]T, 0, n)
	} else {
		v = make([]T, 0, min(n, per))
	}
	for len(v) < n {
		k := min(n-len(v), per)
		d.raw(buf[:k*elemSize])
		if d.err != nil {
			return nil
		}
		if len(v)+k > cap(v) {
			grown := make([]T, len(v), min(n, max(2*cap(v), len(v)+k)))
			copy(grown, v)
			v = grown
		}
		decode(v[len(v):len(v)+k], buf)
		if d.err != nil {
			return nil
		}
		v = v[:len(v)+k]
	}
	return v
}

func getFloat32s(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func getComplexes(dst []complex128, src []byte) {
	for i := range dst {
		dst[i] = complex(
			math.Float64frombits(binary.LittleEndian.Uint64(src[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(src[16*i+8:])))
	}
}

// Ints reads a length-prefixed []int. Every element is range-checked
// like Int; the first one out of range fails the read with ErrCorrupt.
func (d *Reader) Ints() []int {
	n := d.Len()
	return decodeSlice(d, n, 8, func(dst []int, src []byte) {
		for i := range dst {
			dst[i] = d.checkInt(int64(binary.LittleEndian.Uint64(src[8*i:])))
		}
	})
}

// Floats reads a length-prefixed []float64.
func (d *Reader) Floats() []float64 {
	n := d.Len()
	return decodeSlice(d, n, 8, decodeFloats)
}

// Complexes reads a length-prefixed []complex128.
func (d *Reader) Complexes() []complex128 {
	n := d.Len()
	return decodeSlice(d, n, 16, getComplexes)
}

// Dense reads a matrix written by Writer.Dense.
func (d *Reader) Dense() *mat.Dense {
	r, c := d.shape()
	data := decodeSlice(d, r*c, 8, decodeFloats)
	if d.err != nil {
		return nil
	}
	return &mat.Dense{R: r, C: c, Data: data}
}

// DenseSegments reads a matrix written by Writer.Dense (or
// DenseSegments) straight into column segments of width w: segs[k] is a
// packed r×min(w, c−k·w) matrix holding columns [k·w, k·w+segs[k].C), so
// the segments together allocate exactly the r×c elements and nothing
// is copied after decode. Allocation follows decodeSlice: up front when
// the source reports an unread length the r×c elements fit in, else a
// segment is opened when its first element arrives and all of them grow
// their rows by doubling, so a lying shape fails at io.ErrUnexpectedEOF
// having allocated a small multiple of what it carried. A matrix with no
// elements yields no segments.
func (d *Reader) DenseSegments(w int) (r, c int, segs []*mat.Dense) {
	if w < 1 {
		panic(fmt.Sprintf("codec: segment width %d", w))
	}
	r, c = d.shape()
	if d.err != nil || r == 0 || c == 0 {
		return r, c, nil
	}
	open := func(k, rows int) {
		width := min(w, c-k*w)
		segs = append(segs, &mat.Dense{R: r, C: width, Data: make([]float64, rows*width)})
	}
	rows := 1 // rows every open segment has room for
	if l, ok := d.r.(interface{ Len() int }); ok && r*c <= l.Len()/8 {
		rows = r
		for k := 0; k*w < c; k++ {
			open(k, rows)
		}
	}
	// The payload arrives a chunk at a time and each chunk scatters into
	// row runs of the segments it spans.
	buf := d.scratch()
	const per = chunkLen / 8
	for e, total := 0, r*c; e < total; {
		k := min(total-e, per)
		d.raw(buf[:8*k])
		if d.err != nil {
			return 0, 0, nil
		}
		for src := buf[:8*k]; len(src) > 0; {
			i, j := e/c, e%c
			q, c0 := j/w, j%w
			if i >= rows {
				rows = min(r, 2*rows)
				for _, s := range segs {
					grown := make([]float64, rows*s.C)
					copy(grown, s.Data)
					s.Data = grown
				}
			}
			if q == len(segs) {
				open(q, rows)
			}
			s := segs[q]
			n := min(s.C-c0, len(src)/8)
			decodeFloats(s.Data[i*s.C+c0:i*s.C+c0+n], src)
			src = src[8*n:]
			e += n
		}
	}
	return r, c, segs
}

// nativeLE reports whether this host lays a float64 out in memory as
// its little-endian wire bytes. A variable so tests can take the
// portable path.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// decodeFloats fills dst from the wire bytes src: one memmove on a
// little-endian host, whose memory layout is the wire format, else the
// per-element decode. Every float64 section (Floats, Dense and
// DenseSegments) decodes through it.
func decodeFloats(dst []float64, src []byte) {
	if nativeLE {
		copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Dense32 reads a float32 matrix written by Writer.Dense32.
func (d *Reader) Dense32() *mat.Dense32 {
	r, c := d.shape()
	data := decodeSlice(d, r*c, 4, getFloat32s)
	if d.err != nil {
		return nil
	}
	return &mat.Dense32{R: r, C: c, Data: data}
}

// shape reads a matrix's dimensions, rejecting an element count over
// maxLen.
func (d *Reader) shape() (r, c int) {
	r = d.Len()
	c = d.Len()
	if d.err == nil && r > 0 && c > maxLen/r {
		d.fail(fmt.Errorf("%w: matrix shape %d×%d too large", ErrCorrupt, r, c))
	}
	if d.err != nil {
		return 0, 0
	}
	return r, c
}
