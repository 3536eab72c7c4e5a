// Package codec is the versioned binary serialization layer behind
// snapshot/restore of incremental analyzer state: a Writer/Reader pair
// over a fixed little-endian wire format with a magic+version header and
// a CRC-32 trailer, plus typed primitives for the quantities the
// numeric layers persist (ints, floats, complexes, dense matrices).
//
// The format is deliberately dumb — field-sequential, no schema — because
// every producer/consumer pair lives in this repository and the version
// header gates compatibility: a Reader refuses a stream whose version it
// does not know, so a format change bumps Version and the decoder reads
// exactly the new layout. The trailer CRC turns truncation and bit rot into
// clean errors instead of silently corrupt analyzers. See DESIGN.md §8.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
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
//	    driftLog.
//
// Readers accept only Version: a stream stamped with any other version
// fails at the header with ErrVersion (DESIGN.md §8, restore policy).
const Version = 2

// magic identifies an imrdmd snapshot stream.
const magic = "IMRDSNAP"

// maxLen bounds every decoded length/dimension (element count sanity
// check). chunkLen is the block both sides of the codec move bytes
// through: the Writer encodes every field into a chunkLen-byte block and
// hands each full block to the underlying Write and to the CRC in one
// call; the Reader fills its block with one Read per refill and serves
// every field out of it, checksumming each consumed run once. hash/crc32
// takes its CLMUL path only for updates of at least 64 bytes and
// checksums shorter ones a byte at a time, so per-field updates would
// cost more than the decode (DESIGN.md §8). chunkLen also bounds what a
// decode allocates ahead of the data actually read: a corrupt or hostile
// stream claiming a huge length dies at io.ErrUnexpectedEOF after at
// most one block.
const (
	maxLen   = 1 << 30
	chunkLen = 1 << 16
)

// maxEmptyReads is how many consecutive (0, nil) reads a refill accepts
// from its source before failing with io.ErrNoProgress.
const maxEmptyReads = 100

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

// Writer serializes primitives to an underlying io.Writer through a
// chunkLen-byte block: the underlying writer sees one Write per full
// block and the rest at Close. Errors latch: after the first write error
// every call is a no-op and Close returns it. Callers therefore write
// whole sections unchecked and test once.
type Writer struct {
	w     io.Writer
	crc   uint32 // IEEE CRC of every flushed byte
	chunk []byte // the block, chunkLen bytes; chunk[:fill] not yet written
	fill  int
	err   error
}

// NewWriter starts a snapshot stream on w at the current Version. The
// magic/version header goes into the block first and reaches w with it.
func NewWriter(w io.Writer) *Writer {
	e := &Writer{w: w, chunk: make([]byte, chunkLen)}
	e.fill = copy(e.chunk, magic)
	e.U32(Version)
	return e
}

// Err returns the first error encountered, if any. A write error shows
// once the block that hits it is flushed, at the latest at Close.
func (e *Writer) Err() error { return e.err }

// Close writes out the buffered block, then the CRC-32 trailer over
// everything emitted before it, and returns the latched error state. It
// does not close the underlying writer.
func (e *Writer) Close() error {
	e.flush()
	if e.err == nil {
		binary.LittleEndian.PutUint32(e.chunk, e.crc)
		_, e.err = e.w.Write(e.chunk[:4])
	}
	return e.err
}

// flush writes the buffered part of the block and folds it into the
// running CRC.
func (e *Writer) flush() {
	if e.err == nil && e.fill > 0 {
		e.crc = crc32.Update(e.crc, crc32.IEEETable, e.chunk[:e.fill])
		_, e.err = e.w.Write(e.chunk[:e.fill])
	}
	e.fill = 0
}

// put reserves the next n bytes of the block for a scalar field,
// flushing the block first when they do not fit.
func (e *Writer) put(n int) []byte {
	if chunkLen-e.fill < n {
		e.flush()
	}
	b := e.chunk[e.fill : e.fill+n : e.fill+n]
	e.fill += n
	return b
}

// U32 writes a fixed 32-bit unsigned value.
func (e *Writer) U32(v uint32) { binary.LittleEndian.PutUint32(e.put(4), v) }

// Int writes an int as a signed 64-bit value.
func (e *Writer) Int(v int) { e.I64(int64(v)) }

// I64 writes a signed 64-bit value.
func (e *Writer) I64(v int64) { binary.LittleEndian.PutUint64(e.put(8), uint64(v)) }

// Bool writes a boolean as one byte.
func (e *Writer) Bool(v bool) {
	b := e.put(1)
	b[0] = 0
	if v {
		b[0] = 1
	}
}

// Float writes a float64 by bit pattern (NaN payloads and signed zeros
// survive the round trip exactly).
func (e *Writer) Float(v float64) { binary.LittleEndian.PutUint64(e.put(8), math.Float64bits(v)) }

// Complex writes a complex128 as its real and imaginary parts.
func (e *Writer) Complex(v complex128) {
	e.Float(real(v))
	e.Float(imag(v))
}

// String writes a length-prefixed UTF-8 string.
func (e *Writer) String(s string) {
	e.Int(len(s))
	putSlice(e, []byte(s), 1, func(dst, src []byte) { copy(dst, src) })
}

// putSlice encodes v into the block, elemSize bytes per element,
// flushing each block as it fills; encode fills dst from src, with
// len(dst) == elemSize*len(src). Whatever does not fill a block stays
// buffered with the scalars around it, so a matrix's rows pack into
// whole blocks however short they are.
func putSlice[T any](e *Writer, v []T, elemSize int, encode func(dst []byte, src []T)) {
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

func putInts(dst []byte, src []int) {
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], uint64(x))
	}
}

// putFloats, putFloat32s and putComplexes are one memmove on a
// little-endian host, whose memory layout is the wire format, else a
// per-element encode.
func putFloats(dst []byte, src []float64) {
	if nativeLE {
		copy(dst, asBytes(src))
		return
	}
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

func putFloat32s(dst []byte, src []float32) {
	if nativeLE {
		copy(dst, asBytes(src))
		return
	}
	for i, x := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

func putComplexes(dst []byte, src []complex128) {
	if nativeLE {
		copy(dst, asBytes(src))
		return
	}
	for i, x := range src {
		binary.LittleEndian.PutUint64(dst[16*i:], math.Float64bits(real(x)))
		binary.LittleEndian.PutUint64(dst[16*i+8:], math.Float64bits(imag(x)))
	}
}

// Ints writes a length-prefixed []int.
func (e *Writer) Ints(v []int) {
	e.Int(len(v))
	putSlice(e, v, 8, putInts)
}

// Floats writes a length-prefixed []float64.
func (e *Writer) Floats(v []float64) {
	e.Int(len(v))
	putSlice(e, v, 8, putFloats)
}

// Complexes writes a length-prefixed []complex128.
func (e *Writer) Complexes(v []complex128) {
	e.Int(len(v))
	putSlice(e, v, 16, putComplexes)
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
}

// Dense32 writes a float32 matrix as its shape followed by the row-major
// payload of 32-bit patterns — the cold-tier history sections of a
// snapshot.
func (e *Writer) Dense32(m *mat.Dense32) {
	e.Int(m.R)
	e.Int(m.C)
	putSlice(e, m.Data[:m.R*m.C], 4, putFloat32s)
}

// Reader deserializes a stream written by Writer. Like the Writer, errors
// latch: after the first failure every getter returns a zero value, so
// callers decode whole sections and check Err (or Close) once. A short
// read surfaces as io.ErrUnexpectedEOF — the truncated-snapshot error.
//
// The Reader fills a chunkLen-byte block from its source, one Read per
// refill, and serves every field out of it: scalars, headers and bulk
// payloads alike, the bulk ones decoded straight from the block. So it
// may read up to one block past the trailer; a caller that needs the
// bytes after a snapshot must frame the snapshot itself.
type Reader struct {
	r   io.Reader
	lr  interface{ Len() int } // r, when it reports its unread length
	blk []byte                 // the block: blk[:pos] consumed, blk[pos:end] unread
	pos int
	end int
	crc uint32 // IEEE CRC of the consumed bytes before blk[:pos]
	// srcErr is the error the source returned with its latest bytes,
	// reported once the block runs short of them.
	srcErr error
	err    error
}

// Word64 returns the eight bytes at b[i:] as a little-endian uint64, and
// false when fewer than eight remain: the word-at-a-time load of the
// ingest bodies' number scanner, kept here with the rest of the
// package's encoding/binary use.
func Word64(b []byte, i int) (uint64, bool) {
	if i < 0 || len(b)-i < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b[i:]), true
}

// NewReader opens a snapshot stream, validating the magic and version
// header before returning. Only the current Version is accepted.
func NewReader(r io.Reader) (*Reader, error) {
	d := &Reader{r: r, blk: make([]byte, chunkLen)}
	d.lr, _ = r.(interface{ Len() int })
	hdr := d.next(len(magic))
	if d.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMagic, d.err)
	}
	if string(hdr) != magic {
		return nil, ErrMagic
	}
	v := d.U32()
	if d.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrVersion, d.err)
	}
	if v != Version {
		return nil, fmt.Errorf("%w: got %d, can read %d", ErrVersion, v, Version)
	}
	return d, nil
}

// Err returns the first error encountered, if any.
func (d *Reader) Err() error { return d.err }

// fail latches err (once) and empties the block, so every later getter
// finds it short, sees the error in ensure and returns a zero value.
func (d *Reader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.end = d.pos
}

// Close reads and verifies the CRC-32 trailer, returning the latched
// error state. Call it after the last field of the last section.
func (d *Reader) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.end-d.pos < 4 {
		if err := d.refill(4); err != nil {
			d.fail(fmt.Errorf("%w: %w", ErrChecksum, err))
			return d.err
		}
	}
	want := crc32.Update(d.crc, crc32.IEEETable, d.blk[:d.pos])
	got := binary.LittleEndian.Uint32(d.blk[d.pos:])
	d.pos += 4
	if got != want {
		d.fail(fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want))
	}
	return d.err
}

// refill makes at least need ≤ chunkLen bytes available at blk[pos:]. It
// folds the consumed run blk[:pos] into the CRC, moves the unread rest
// to the front of the block and reads into the space behind it: one
// Read, more only while the block holds fewer than need bytes. A source
// error that came with the last bytes is returned once they run short;
// an io.EOF then means the snapshot was truncated.
func (d *Reader) refill(need int) error {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.blk[:d.pos])
	d.end = copy(d.blk, d.blk[d.pos:d.end])
	d.pos = 0
	for empty := 0; d.end < need; {
		if d.srcErr != nil {
			return noEOF(d.srcErr)
		}
		n, err := d.r.Read(d.blk[d.end:])
		if n < 0 || n > len(d.blk)-d.end {
			return fmt.Errorf("codec: source returned %d bytes for a %d-byte read", n, len(d.blk)-d.end)
		}
		d.end += n
		d.srcErr = err
		switch {
		case n > 0:
			empty = 0
		case err == nil:
			if empty++; empty == maxEmptyReads {
				return io.ErrNoProgress
			}
		}
	}
	return nil
}

// noEOF normalizes a mid-field io.EOF to io.ErrUnexpectedEOF: any EOF
// while a field is owed means the snapshot was truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ensure makes at least n ≤ chunkLen bytes available in the block,
// refilling it when it holds fewer, and reports false once the reader
// has failed.
func (d *Reader) ensure(n int) bool {
	if d.end-d.pos >= n {
		return true
	}
	if d.err != nil {
		return false
	}
	if err := d.refill(n); err != nil {
		d.fail(err)
		return false
	}
	return true
}

// next consumes the next n ≤ chunkLen bytes and returns them, or nil
// once the reader has failed. The bytes stay valid until the next call.
func (d *Reader) next(n int) []byte {
	if d.end-d.pos < n && !d.ensure(n) {
		return nil
	}
	b := d.blk[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// U32 reads a fixed 32-bit unsigned value.
func (d *Reader) U32() uint32 {
	b := d.next(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads a signed 64-bit value.
func (d *Reader) I64() int64 {
	b := d.next(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
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
	b := d.next(1)
	return b != nil && b[0] != 0
}

// Float reads a float64.
func (d *Reader) Float() float64 {
	b := d.next(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Complex reads a complex128.
func (d *Reader) Complex() complex128 {
	b := d.next(16)
	if b == nil {
		return 0
	}
	return complex(
		math.Float64frombits(binary.LittleEndian.Uint64(b)),
		math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
}

// String reads a length-prefixed string.
func (d *Reader) String() string {
	n := d.Len()
	return string(decodeSlice(d, n, 1, func(dst, src []byte) { copy(dst, src) }))
}

// inMemory returns how many unread stream bytes are already in memory:
// what the block holds, plus the source's unread length when it reports
// one (Len() int, as bytes.Reader does — the sniff net/http makes for
// ContentLength).
func (d *Reader) inMemory() int {
	n := d.end - d.pos
	if d.lr != nil {
		n += d.lr.Len()
	}
	return n
}

// decodeSlice reads n elements of elemSize bytes each straight out of
// the block: decode fills a run of elements dst from the bytes src the
// block holds for them, and the block is refilled when it holds less
// than one element. The result grows only after a run's bytes have
// arrived, by doubling capped at n, so its capacity stays within about
// twice the consumed elements plus one block — a lying length fails at
// io.ErrUnexpectedEOF before it can drive a large allocation. When the n
// elements fit in the bytes already in memory (inMemory) they are
// allocated up front instead: a lying length still cannot allocate more
// than those bytes take. decode may latch an error through d; the run
// it occurs in is the last one read.
func decodeSlice[T any](d *Reader, n, elemSize int, decode func(dst []T, src []byte)) []T {
	if d.err != nil {
		return nil
	}
	var v []T
	if n <= d.inMemory()/elemSize {
		v = make([]T, 0, n)
	} else {
		v = make([]T, 0, min(n, chunkLen/elemSize))
	}
	for len(v) < n {
		if !d.ensure(elemSize) {
			return nil
		}
		k := min(n-len(v), (d.end-d.pos)/elemSize)
		if len(v)+k > cap(v) {
			grown := make([]T, len(v), min(n, max(2*cap(v), len(v)+k)))
			copy(grown, v)
			v = grown
		}
		src := d.blk[d.pos : d.pos+k*elemSize]
		d.pos += len(src)
		decode(v[len(v):len(v)+k], src)
		if d.err != nil {
			return nil
		}
		v = v[:len(v)+k]
	}
	return v
}

// nativeLE reports whether this host lays a float64, a float32 and a
// complex128 out in memory as their little-endian wire bytes. A variable
// so tests can take the portable path.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// asBytes returns the memory of v as bytes, for the nativeLE paths.
func asBytes[T float32 | float64 | complex128](v []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(z)))
}

// decodeFloats, getFloat32s and getComplexes fill dst from the wire
// bytes src: one memmove on a little-endian host, else the per-element
// decode. Every float section decodes through one of them.
func decodeFloats(dst []float64, src []byte) {
	if nativeLE {
		copy(asBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func getFloat32s(dst []float32, src []byte) {
	if nativeLE {
		copy(asBytes(dst), src)
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func getComplexes(dst []complex128, src []byte) {
	if nativeLE {
		copy(asBytes(dst), src)
		return
	}
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
// the r×c elements fit in the bytes already in memory, else a segment
// is opened when its first element arrives and all of them grow their
// rows by doubling, so a lying shape fails at io.ErrUnexpectedEOF
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
	if r*c <= d.inMemory()/8 {
		rows = r
		for k := 0; k*w < c; k++ {
			open(k, rows)
		}
	}
	// Each run of the payload the block holds scatters into the row runs
	// of the segments it spans.
	for e, total := 0, r*c; e < total; {
		if !d.ensure(8) {
			return 0, 0, nil
		}
		k := min(total-e, (d.end-d.pos)/8)
		src := d.blk[d.pos : d.pos+8*k]
		d.pos += len(src)
		for len(src) > 0 {
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
