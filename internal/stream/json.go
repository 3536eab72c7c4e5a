package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"imrdmd/internal/mat"
)

// JSONBatch is the wire form of one JSON ingest batch: Data[i] holds
// sensor i's values for the batch's consecutive time steps. A body may
// concatenate any number of batch objects back to back (chunked ingest);
// JSONSource yields them in order.
type JSONBatch struct {
	Data [][]float64 `json:"data"`
}

// JSONSource adapts a stream of JSONBatch objects to the Source
// interface. The body is read once into one buffer and scanned in place,
// one batch object per Next: every number is checked against the
// RFC 8259 grammar and converted in the same pass (parseNumber), then
// written row-major into the slice that backs its batch, so a batch
// costs one allocation for its values and none per row. Decode errors
// latch and end the stream; check Err (or SourceErr) after exhaustion.
//
// The accepted input is what encoding/json unmarshals into a JSONBatch,
// bit for bit, with one deliberate difference: a null row or value is an
// error, where encoding/json would decode it as an empty row or as 0 and
// so silently absorb a missing reading. Keys match "data" after
// unescaping and case folding, values under other keys are validated and
// skipped, and when "data" appears twice in one object the last wins.
type JSONSource struct {
	sc   jsonScanner
	rows int
	next *mat.Dense
	err  error
}

// FromJSON reads r to the end and opens the JSON batch stream it holds,
// eagerly decoding the first batch so the row count is known up front.
// An input with no batches at all is an error — there is nothing to size
// the stream by. When r reports its length with a Len() int method (as
// bytes.Reader, strings.Reader and bytes.Buffer do), that length sizes
// the body buffer, up to 1 MiB.
func FromJSON(r io.Reader) (*JSONSource, error) {
	buf, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("stream: read JSON body: %w", err)
	}
	s := &JSONSource{sc: jsonScanner{b: buf}}
	s.next = s.decode()
	if s.err != nil {
		return nil, s.err
	}
	if s.next == nil {
		return nil, errors.New("stream: JSON source holds no batches")
	}
	s.rows = s.next.R
	return s, nil
}

// maxPrealloc caps the body buffer allocated before any byte arrives. A
// length hint may be a client's Content-Length, so trusting it in full
// would let a client that declares a large body and then stalls pin that
// much memory; past the cap the buffer grows only as bytes are read.
const maxPrealloc = 1 << 20

// maxGrowth bounds each growth of the body buffer past maxPrealloc: a
// full buffer of n bytes grows to at most maxGrowth·n, so what a body
// allocates stays within a fixed multiple of the bytes it has sent,
// whatever length it declared.
const maxGrowth = 8

// readAll is io.ReadAll with the buffer sized from r's Len, when it has
// one. The first buffer takes the hint up to maxPrealloc, so a body of
// known length under the cap is read with one allocation. Past it a full
// buffer grows toward the hint, by at most maxGrowth times the bytes read
// (the 7.2 MB CSV seed takes a 1 MiB buffer, then its own size), and
// doubles once the hint is reached or when there is none. On a read
// error it returns the bytes read before it.
func readAll(r io.Reader) ([]byte, error) {
	n, hint := 512, 0
	if l, ok := r.(interface{ Len() int }); ok {
		hint = max(l.Len(), 0) + 1 // room for the read that reports EOF
		n = min(hint, maxPrealloc+1)
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			c := 2 * cap(b)
			if hint > c {
				c = min(hint, maxGrowth*len(b))
			}
			b = append(make([]byte, 0, c), b...)
		}
	}
}

// Rows returns P, fixed by the first batch.
func (s *JSONSource) Rows() int { return s.rows }

// Err returns the decode error that ended the stream, if any.
func (s *JSONSource) Err() error { return s.err }

// Next yields the next decoded batch.
func (s *JSONSource) Next() (*mat.Dense, bool) {
	if s.next == nil {
		return nil, false
	}
	out := s.next
	s.next = s.decode()
	if s.next != nil && s.next.R != s.rows {
		s.err = fmt.Errorf("stream: JSON batch has %d rows, want %d", s.next.R, s.rows)
		s.next = nil
	}
	return out, true
}

// decode parses one batch object, returning nil at end of stream or on a
// latched error.
func (s *JSONSource) decode() *mat.Dense {
	if s.err != nil {
		return nil
	}
	m, err := s.batch()
	s.err = err
	return m
}

// batch parses the next batch object, or returns nil, nil once only
// whitespace is left.
func (s *JSONSource) batch() (*mat.Dense, error) {
	sc := &s.sc
	if sc.peek(); sc.i == len(sc.b) {
		return nil, nil
	}
	if sc.b[sc.i] != '{' {
		return nil, sc.syntaxErr("looking for beginning of batch object")
	}
	var d jsonData
	err := sc.object(func(key []byte) error {
		if isDataKey(key) {
			return d.parse(sc)
		}
		return sc.skip(2)
	})
	if err != nil {
		return nil, err
	}
	if d.ragged != nil {
		return nil, d.ragged
	}
	if d.rows == 0 {
		return nil, errors.New("stream: JSON batch has no rows")
	}
	return mat.NewDenseData(d.rows, d.cols, d.vals), nil
}

// errJSONNull marks a null row or value in a batch.
var errJSONNull = errors.New("null is not a number (drop a missing reading instead of sending null)")

// jsonData is the value of a batch object's "data" key.
type jsonData struct {
	vals       []float64 // row-major
	rows, cols int
	// ragged is the shape error of this value. It is reported only if no
	// later "data" key in the object replaces the value, as encoding/json
	// checks nothing until the last one has been decoded.
	ragged error
}

// parse reads a "data" value — null (no rows) or an array of rows, each
// an array of numbers — appending the numbers to d.vals, which is sized
// once from sizeHint. A later "data" key reparses into the same slice.
func (d *jsonData) parse(sc *jsonScanner) error {
	d.vals, d.rows, d.cols, d.ragged = d.vals[:0], 0, 0, nil
	switch sc.peek() {
	case 'n':
		return sc.literal("null")
	case '[':
	default:
		return sc.typeErr(`stream: JSON batch "data" is not an array of rows`)
	}
	if n := sizeHint(sc.b[sc.i+1:]); cap(d.vals) < n {
		d.vals = make([]float64, 0, n)
	}
	return sc.container(']', func() error { return d.row(sc) })
}

// row reads one row of numbers.
func (d *jsonData) row(sc *jsonScanner) error {
	switch sc.peek() {
	case 'n':
		if err := sc.literal("null"); err != nil {
			return err
		}
		return fmt.Errorf("stream: JSON batch row %d: %w", d.rows, errJSONNull)
	case '[':
	default:
		return sc.typeErr(fmt.Sprintf("stream: JSON batch row %d is not an array of numbers", d.rows))
	}
	start := len(d.vals)
	if err := sc.container(']', func() error { return d.value(sc, len(d.vals)-start) }); err != nil {
		return err
	}
	if n := len(d.vals) - start; d.rows == 0 {
		d.cols = n
	} else if n != d.cols && d.ragged == nil {
		d.ragged = fmt.Errorf("stream: ragged JSON batch: row %d has %d values, want %d", d.rows, n, d.cols)
	}
	d.rows++
	return nil
}

// value reads the number in column col of the current row.
func (d *jsonData) value(sc *jsonScanner, col int) error {
	switch c := sc.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		start := sc.i
		v, err := sc.number()
		if err != nil {
			if errors.Is(err, strconv.ErrRange) {
				return fmt.Errorf("stream: JSON batch row %d col %d: value %s is out of float64 range", d.rows, col, sc.b[start:sc.i])
			}
			return err
		}
		d.vals = append(d.vals, v)
		return nil
	case c == 'n':
		if err := sc.literal("null"); err != nil {
			return err
		}
		return fmt.Errorf("stream: JSON batch row %d col %d: %w", d.rows, col, errJSONNull)
	}
	return sc.typeErr(fmt.Sprintf("stream: JSON batch row %d col %d is not a number", d.rows, col))
}

// sizeHint guesses how many values the data array whose first row starts
// at b holds, assuming the usual form: rows of comma-separated numbers,
// each closed by the first ']' after it opens. The guess only sizes the
// batch's value slice, so that a well-formed batch fills one allocation;
// parsing validates, and appending grows the slice if the guess is
// short. It is capped at one value per two bytes of the rows it walked,
// the densest a JSON array of numbers can be, so no batch can make it
// allocate more than four times the batch's own size.
//
// The walk stops at the first separator not followed by '[', so it never
// leaves the rows of its own data array: a body's walks cover disjoint
// spans and cost time linear in the body, however many "data" keys it
// repeats.
func sizeHint(b []byte) int {
	rows, cols, end := 0, 0, 0
	for {
		k := skipSpace(b, end)
		if k == len(b) || b[k] != '[' {
			break
		}
		i := bytes.IndexByte(b[k:], ']')
		if i < 0 {
			break
		}
		if rows == 0 {
			cols = bytes.Count(b[k:k+i], []byte{','}) + 1
		}
		rows++
		end = k + i + 1
		if k = skipSpace(b, end); k == len(b) || b[k] != ',' {
			break
		}
		end = k + 1
	}
	return min(rows*cols, end/2+1)
}

// skipSpace returns the offset of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// isDataKey reports whether a raw (still escaped) object key names the
// "data" field the way encoding/json matches it: equal to "data" after
// unescaping and case folding. No non-ASCII rune folds to a letter of
// "data", so ASCII folding is exact here. The key has passed str.
func isDataKey(key []byte) bool {
	const want = "data"
	n := 0
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == '\\' {
			if key[i+1] != 'u' { // \" \\ \/ \b \f \n \r \t: none is a letter
				return false
			}
			r, _ := strconv.ParseUint(string(key[i+2:i+6]), 16, 16) // four hex digits, checked by str
			if r >= utf8.RuneSelf {
				return false
			}
			c, i = byte(r), i+5
		}
		if n == len(want) || c|0x20 != want[n] {
			return false
		}
		n++
	}
	return n == len(want)
}

// maxJSONDepth is encoding/json's nesting limit, kept so that both accept
// the same inputs.
const maxJSONDepth = 10000

// jsonScanner walks a JSON body in place.
type jsonScanner struct {
	b []byte
	i int // offset of the next unread byte
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input.
func (sc *jsonScanner) peek() byte {
	if sc.i = skipSpace(sc.b, sc.i); sc.i < len(sc.b) {
		return sc.b[sc.i]
	}
	return 0
}

// syntaxErr reports the byte at the scan position as unexpected.
func (sc *jsonScanner) syntaxErr(context string) error {
	if sc.i >= len(sc.b) {
		return errJSONEnd
	}
	return fmt.Errorf("stream: invalid character %q at byte %d %s", sc.b[sc.i], sc.i, context)
}

// typeErr reports a value of the wrong type starting at the scan
// position, unless the input ends there instead.
func (sc *jsonScanner) typeErr(msg string) error {
	if sc.i >= len(sc.b) {
		return errJSONEnd
	}
	return errors.New(msg)
}

var errJSONEnd = errors.New("stream: unexpected end of JSON input")

// object walks the members of the object whose '{' is at the scan
// position, calling value with each raw key and the scan position at the
// key's value, which value must consume.
func (sc *jsonScanner) object(value func(key []byte) error) error {
	return sc.container('}', func() error {
		if sc.peek() != '"' {
			return sc.syntaxErr("looking for beginning of object key string")
		}
		start := sc.i + 1
		if err := sc.str(); err != nil {
			return err
		}
		key := sc.b[start : sc.i-1]
		if sc.peek() != ':' {
			return sc.syntaxErr("after object key")
		}
		sc.i++
		return value(key)
	})
}

// container walks the comma-separated elements of the object or array
// whose opening bracket is at the scan position and whose closing one
// is end, calling elem with the scan position at each element, which
// elem must consume.
func (sc *jsonScanner) container(end byte, elem func() error) error {
	sc.i++
	if sc.peek() == end {
		sc.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch sc.peek() {
		case ',':
			sc.i++
		case end:
			sc.i++
			return nil
		default:
			return sc.syntaxErr("after element")
		}
	}
}

// skip validates and steps over one value of any type. depth is the
// nesting level a container opened here has, counting the batch object
// as 1.
func (sc *jsonScanner) skip(depth int) error {
	switch c := sc.peek(); {
	case c == '{' || c == '[':
		if depth > maxJSONDepth {
			return fmt.Errorf("stream: JSON nesting exceeds %d levels at byte %d", maxJSONDepth, sc.i)
		}
		if c == '{' {
			return sc.object(func([]byte) error { return sc.skip(depth + 1) })
		}
		return sc.container(']', func() error { return sc.skip(depth + 1) })
	case c == '"':
		return sc.str()
	case c == '-' || '0' <= c && c <= '9':
		// A value under another key is only validated: encoding/json
		// skips it unconverted, so being out of range is no error.
		if _, err := sc.number(); !errors.Is(err, strconv.ErrRange) {
			return err
		}
		return nil
	case c == 't':
		return sc.literal("true")
	case c == 'f':
		return sc.literal("false")
	case c == 'n':
		return sc.literal("null")
	}
	return sc.syntaxErr("looking for beginning of value")
}

// literal steps over the literal lit (true, false or null).
func (sc *jsonScanner) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if sc.i >= len(sc.b) || sc.b[sc.i] != lit[k] {
			return sc.syntaxErr("in literal " + lit)
		}
		sc.i++
	}
	return nil
}

// number reads and converts the number at the scan position (see
// parseNumber). A token that breaks the RFC 8259 grammar is a syntax
// error at the byte at fault; one beyond the float64 range returns
// strconv's range error with the scan position past the token.
func (sc *jsonScanner) number() (float64, error) {
	v, n, err := parseNumber(sc.b[sc.i:])
	sc.i += n
	if ctx, ok := err.(numberSyntax); ok {
		return 0, sc.syntaxErr(string(ctx))
	}
	return v, err
}

// str steps over a string whose opening quote is at the scan position:
// no raw control characters, and only the escapes RFC 8259 defines.
// Invalid UTF-8 passes, as encoding/json lets it.
func (sc *jsonScanner) str() error {
	b, i := sc.b, sc.i+1
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			sc.i = i + 1
			return nil
		case c == '\\':
			if i+1 == len(b) {
				sc.i = i + 1
				return sc.syntaxErr("in string escape code")
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				j := i + 2
				for j < i+6 && j < len(b) && isHex(b[j]) {
					j++
				}
				if j < i+6 {
					sc.i = j
					return sc.syntaxErr(`in \u hexadecimal character escape`)
				}
				i = j
			default:
				sc.i = i + 1
				return sc.syntaxErr("in string escape code")
			}
		case c < 0x20:
			sc.i = i
			return sc.syntaxErr("in string literal")
		default:
			i++
		}
	}
	sc.i = i
	return sc.syntaxErr("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
