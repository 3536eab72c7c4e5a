// Package stream provides the online-analysis plumbing: batched column
// sources (from a matrix, CSV or JSON) and a Feeder that seeds and then
// streams an I-mrDMD analyzer one pushed batch at a time — the
// "simulated streaming environment" of the paper's evaluation (§IV, §V).
package stream

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"imrdmd/internal/compute"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

// Source yields successive column batches of a conceptually infinite
// P×∞ matrix. Next returns nil, false when exhausted.
type Source interface {
	// Next returns the next batch of columns.
	Next() (*mat.Dense, bool)
	// Rows returns P, the fixed row count.
	Rows() int
}

// matrixSource replays a fixed matrix in batches.
type matrixSource struct {
	data  *mat.Dense
	batch int
	pos   int
}

// FromMatrix replays data in batches of `batch` columns.
func FromMatrix(data *mat.Dense, batch int) Source {
	if batch <= 0 {
		batch = 1
	}
	return &matrixSource{data: data, batch: batch}
}

func (s *matrixSource) Rows() int { return s.data.R }

func (s *matrixSource) Next() (*mat.Dense, bool) {
	if s.pos >= s.data.C {
		return nil, false
	}
	hi := s.pos + s.batch
	if hi > s.data.C {
		hi = s.data.C
	}
	out := s.data.ColSlice(s.pos, hi)
	s.pos = hi
	return out, true
}

// Quantile picks the nearest-rank quantile q ∈ [0,1] of an ascending
// sorted latency slice (zero when empty) — the helper behind the served
// and benchmarked p50/p99 ingest numbers, shared so the two can never
// disagree on rank convention.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Feeder drives an analyzer from batches that arrive one call at a time
// (an ingest endpoint, a message consumer, a loop over a Source).
// Columns accumulate until the requested seed width is reached, at which
// point exactly initialCols columns go to InitialFit and the overflow
// becomes the first PartialFit; every later Push is one PartialFit per
// batch. A Feeder is not safe for concurrent Push calls —
// callers serialize (the server holds a per-tenant lock).
type Feeder struct {
	inc         *core.Incremental
	initialCols int
	pending     *mat.Dense
	seeded      bool
}

// NewFeeder prepares a feeder that seeds inc with exactly initialCols
// columns. initialCols below 2 is rejected up front: InitialFit needs at
// least two columns, and silently seeding with "whatever accumulated"
// hides a misconfigured seed width.
func NewFeeder(inc *core.Incremental, initialCols int) (*Feeder, error) {
	if initialCols < 2 {
		return nil, fmt.Errorf("stream: initialCols must be >= 2, got %d", initialCols)
	}
	return &Feeder{inc: inc, initialCols: initialCols}, nil
}

// ResumeFeeder wraps an analyzer that is already fitted (typically
// restored from a snapshot): the feeder starts in the seeded state and
// every Push is a PartialFit.
func ResumeFeeder(inc *core.Incremental) *Feeder {
	return &Feeder{inc: inc, seeded: true}
}

// Seeded reports whether InitialFit has run.
func (f *Feeder) Seeded() bool { return f.seeded }

// Pending returns how many columns are buffered awaiting the seed.
func (f *Feeder) Pending() int {
	if f.pending == nil {
		return 0
	}
	return f.pending.C
}

// Push absorbs one batch of columns: buffered until the seed width is
// reached, a PartialFit afterwards. Empty or nil batches are no-ops; a
// batch whose row count disagrees with what is already buffered is an
// error (post-seed, PartialFit makes the equivalent check itself).
func (f *Feeder) Push(b *mat.Dense) error {
	if b == nil || b.C == 0 {
		return nil
	}
	if f.seeded {
		_, err := f.inc.PartialFit(b)
		return err
	}
	if f.pending == nil {
		f.pending = b.Clone() // the caller may recycle its batch buffer
	} else {
		if b.R != f.pending.R {
			return fmt.Errorf("stream: batch has %d rows, want %d", b.R, f.pending.R)
		}
		// Amortized growth: the buffer keeps spare column capacity, so
		// buffering T columns copies O(T) values, not O(T²).
		f.pending = mat.GrowColsWith(nil, f.pending, b)
	}
	if f.pending.C < f.initialCols {
		return nil
	}
	return f.seed()
}

// seed runs InitialFit on the first initialCols pending columns and
// feeds any overflow as the first partial fit.
func (f *Feeder) seed() error {
	first, rest := f.pending, (*mat.Dense)(nil)
	if first.C > f.initialCols {
		rest = first.ColSlice(f.initialCols, first.C)
		first = first.ColSlice(0, f.initialCols)
	}
	if err := f.inc.InitialFit(first); err != nil {
		return err
	}
	f.seeded = true
	f.pending = nil
	if rest != nil {
		_, err := f.inc.PartialFit(rest)
		return err
	}
	return nil
}

// SourceErr surfaces the terminal error of sources that can fail
// mid-stream (e.g. JSONSource): an exhausted source with a latched
// error must not be mistaken for a clean end of stream. Sources without
// an Err method cannot fail and report nil.
func SourceErr(src Source) error {
	if fs, ok := src.(interface{ Err() error }); ok {
		return fs.Err()
	}
	return nil
}

// shapeTag marks the explicit-shape header record WriteCSV emits for
// degenerate matrices (zero rows or zero columns), which plain CSV rows
// cannot represent: a P×0 matrix would write P empty records the reader
// cannot distinguish from blank lines, and a 0×C matrix writes nothing at
// all. Non-degenerate matrices keep the plain headerless format, so files
// from external tools read unchanged.
const shapeTag = "#shape"

// WriteCSV writes a P×T matrix as rows of comma-separated values (row i =
// sensor i). Degenerate shapes are written as a single "#shape,R,C"
// record so ReadCSV is a true inverse on every shape. Non-finite values
// (NaN, ±Inf) are rejected — they would poison the analyzer downstream,
// and rejecting at the serialization boundary names the offending cell.
func WriteCSV(w io.Writer, data *mat.Dense) error {
	for i := 0; i < data.R; i++ {
		for j, v := range data.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("stream: WriteCSV row %d col %d: non-finite value %v", i, j, v)
			}
		}
	}
	cw := csv.NewWriter(w)
	if data.R == 0 || data.C == 0 {
		if err := cw.Write([]string{shapeTag, strconv.Itoa(data.R), strconv.Itoa(data.C)}); err != nil {
			return err
		}
		cw.Flush()
		return cw.Error()
	}
	rec := make([]string, data.C)
	for i := 0; i < data.R; i++ {
		row := data.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a matrix written by WriteCSV (every row one sensor).
// Empty input and the "#shape" header round-trip the degenerate shapes;
// non-finite values ("NaN", "Inf") are rejected with a clear error — the
// CSV ingest path must never hand the analyzer data it will choke on.
//
// The body is read once (sized by r's Len, as FromJSON sizes a JSON
// body). A body in the plain form WriteCSV emits for a non-degenerate
// matrix is parsed in place, in record-aligned bands on the shared
// compute engine (readPlainCSV); any other body goes whole to
// encoding/csv and strconv.ParseFloat, which define what ReadCSV accepts
// and every error it reports. Both read every value to the same bits.
func ReadCSV(r io.Reader) (*mat.Dense, error) {
	body, err := readAll(r)
	if err != nil {
		// Replay what arrived, then the error, so that the records before
		// it parse (or fail) as they would have read straight from r.
		return readCSVRecords(io.MultiReader(bytes.NewReader(body), errReader{err}))
	}
	if m := readPlainCSV(compute.Default(), body); m != nil {
		return m, nil
	}
	return readCSVRecords(bytes.NewReader(body))
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readPlainCSV parses a body in the plain form: one or more records of
// the same number of fields, each field an RFC 8259 number (parseNumber)
// within float64 range, fields separated by ',' and records ended by
// '\n' or "\r\n", the last one optionally by the end of the body. It
// returns nil for any other body, which may still be valid CSV (quotes,
// blank lines, "#shape", "+1", "Inf", ...) or invalid, and is left to
// readCSVRecords. On a plain body encoding/csv splits the same records
// and fields and strconv.ParseFloat reads the same bits, so the two
// readers agree wherever this one answers.
//
// The row count is the body's newline count, plus one when the last
// record ends the body. The body is cut into record-aligned bands, at
// most one per lane of e, parsed concurrently, each into its own rows of
// the result.
func readPlainCSV(e *compute.Engine, b []byte) *mat.Dense {
	first := bytes.IndexByte(b, '\n')
	if first < 0 {
		first = len(b)
	}
	if first == 0 {
		return nil // empty body or blank first line
	}
	c := bytes.Count(b[:first], []byte{','}) + 1
	edges := bandEdges(b, e.Workers())
	rowAt := make([]int, len(edges)) // first row of each band, then the total
	for k := 1; k < len(edges); k++ {
		rowAt[k] = rowAt[k-1] + bytes.Count(b[edges[k-1]:edges[k]], []byte{'\n'})
	}
	if b[len(b)-1] != '\n' {
		rowAt[len(rowAt)-1]++
	}
	rows := rowAt[len(rowAt)-1]
	// Every value takes a digit and a separator (the body's last value
	// may lack the separator), so a plain body has at least 2·rows·c−1
	// bytes. Checking that before allocating caps the result at four
	// times the body's size, whatever its first line claims.
	if 2*rows*c-1 > len(b) {
		return nil
	}
	out := mat.NewDense(rows, c)
	ok := make([]bool, len(edges)-1)
	e.ParallelFor(len(ok), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			ok[k] = parsePlainRows(b[edges[k]:edges[k+1]], out.Data[rowAt[k]*c:rowAt[k+1]*c], c)
		}
	})
	for _, bandOK := range ok {
		if !bandOK {
			return nil
		}
	}
	return out
}

// bandEdges cuts b into at most n bands that start at the start of b or
// just past a newline, returning the band boundaries from 0 to len(b).
func bandEdges(b []byte, n int) []int {
	edges := make([]int, 1, n+1)
	for k := 1; k < n; k++ {
		// The band ends past the first newline at or after byte at−1, so
		// a record that starts at the even cut starts the band.
		at := max(k*len(b)/n, edges[len(edges)-1]+1)
		j := bytes.IndexByte(b[at-1:], '\n')
		if j < 0 || at+j == len(b) {
			break
		}
		edges = append(edges, at+j)
	}
	return append(edges, len(b))
}

// parsePlainRows parses the plain-form records of b into dst, c values a
// row, reporting whether b held exactly len(dst)/c such records.
func parsePlainRows(b []byte, dst []float64, c int) bool {
	i := 0
	for r := 0; r < len(dst); r += c {
		row := dst[r : r+c]
		for j := range row {
			v, n, err := parseNumber(b[i:])
			if err != nil {
				return false
			}
			row[j] = v
			i += n
			switch {
			case j < c-1:
				if i == len(b) || b[i] != ',' {
					return false
				}
				i++
			case i == len(b): // the body's last record
			case b[i] == '\n':
				i++
			case b[i] == '\r' && i+1 < len(b) && b[i+1] == '\n':
				i += 2
			default:
				return false
			}
		}
	}
	return i == len(b)
}

// readCSVRecords reads a CSV body with encoding/csv and converts its
// fields with strconv.ParseFloat: the reference reader that defines what
// ReadCSV accepts.
func readCSVRecords(r io.Reader) (*mat.Dense, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // shape checked below with a clearer error
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if len(rows) == 0 {
		return mat.NewDense(0, 0), nil
	}
	if rows[0][0] == shapeTag {
		if len(rows[0]) != 3 || len(rows) != 1 {
			return nil, errors.New("stream: malformed #shape header")
		}
		pr, err1 := strconv.Atoi(rows[0][1])
		pc, err2 := strconv.Atoi(rows[0][2])
		if err1 != nil || err2 != nil || pr < 0 || pc < 0 || (pr != 0 && pc != 0) {
			return nil, fmt.Errorf("stream: #shape header %v is not a degenerate shape", rows[0][1:])
		}
		return mat.NewDense(pr, pc), nil
	}
	c := len(rows[0])
	out := mat.NewDense(len(rows), c)
	for i, rec := range rows {
		if len(rec) != c {
			return nil, fmt.Errorf("stream: ragged CSV: row %d has %d fields, want %d", i, len(rec), c)
		}
		for j, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("stream: row %d col %d: %w", i, j, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("stream: row %d col %d: non-finite value %q", i, j, f)
			}
			out.Set(i, j, v)
		}
	}
	return out, nil
}
