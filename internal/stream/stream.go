// Package stream provides the online-analysis plumbing: batched column
// sources (from a matrix, a generator function, or CSV) and a pump that
// drives an I-mrDMD analyzer from a source while recording per-batch
// latencies — the "simulated streaming environment" of the paper's
// evaluation (§IV, §V).
package stream

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

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

// genSource materializes batches on demand from a column-range generator.
type genSource struct {
	gen   func(t0, t1 int) *mat.Dense
	rows  int
	total int
	batch int
	pos   int
}

// FromFunc wraps a deterministic column-range generator (such as
// telemetry.Generator.Matrix) as a Source of `total` columns.
func FromFunc(gen func(t0, t1 int) *mat.Dense, rows, total, batch int) Source {
	if batch <= 0 {
		batch = 1
	}
	return &genSource{gen: gen, rows: rows, total: total, batch: batch}
}

func (s *genSource) Rows() int { return s.rows }

func (s *genSource) Next() (*mat.Dense, bool) {
	if s.pos >= s.total {
		return nil, false
	}
	hi := s.pos + s.batch
	if hi > s.total {
		hi = s.total
	}
	out := s.gen(s.pos, hi)
	s.pos = hi
	return out, true
}

// PumpStats records the timing of a streaming run.
type PumpStats struct {
	InitialColumns int
	InitialFit     time.Duration
	// PartialTotal is the summed partial-fit latency over all batches.
	PartialTotal time.Duration
	// Batches is the number of partial-fit batches processed.
	Batches int
	// Columns is the total column count absorbed (initial + streamed).
	Columns int
	// ShortSeed reports that the source exhausted before the requested
	// initial column count, so InitialFit ran on fewer columns than asked
	// for (InitialColumns says how many). The fit is still valid — it just
	// resolves a shorter level-1 window than the caller planned.
	ShortSeed bool
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

// TotalPartial returns the summed partial-fit time.
func (s *PumpStats) TotalPartial() time.Duration { return s.PartialTotal }

// MeanPartial returns the average partial-fit latency.
func (s *PumpStats) MeanPartial() time.Duration {
	if s.Batches == 0 {
		return 0
	}
	return s.PartialTotal / time.Duration(s.Batches)
}

// Feeder is the push-based counterpart of Pump: batches arrive one call
// at a time (an ingest endpoint, a message consumer) instead of being
// pulled from a Source. Columns accumulate until the requested seed width
// is reached, at which point exactly initialCols columns go to InitialFit
// and the overflow becomes the first PartialFit; every later Push is one
// PartialFit per batch. A Feeder is not safe for concurrent Push calls —
// callers serialize (the server holds a per-tenant lock).
type Feeder struct {
	inc         *core.Incremental
	initialCols int
	pending     *mat.Dense
	stats       PumpStats
	seeded      bool
}

// NewFeeder prepares a feeder that seeds inc with exactly initialCols
// columns. initialCols below 2 is rejected up front: InitialFit needs at
// least two columns, and silently seeding with "whatever accumulated"
// (the old Pump behavior) hides a misconfigured seed width.
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
	cols := inc.Cols()
	return &Feeder{
		inc:         inc,
		initialCols: cols,
		seeded:      true,
		stats:       PumpStats{InitialColumns: cols, Columns: cols},
	}
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

// Stats snapshots the accumulated timing record.
func (f *Feeder) Stats() PumpStats { return f.stats }

// Push absorbs one batch of columns: buffered until the seed width is
// reached, a PartialFit afterwards. Empty or nil batches are no-ops; a
// batch whose row count disagrees with what is already buffered is an
// error (post-seed, PartialFit makes the equivalent check itself).
func (f *Feeder) Push(b *mat.Dense) error {
	if b == nil || b.C == 0 {
		return nil
	}
	if f.seeded {
		return f.feed(b)
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
	return f.seed(f.initialCols)
}

// Finish seeds from whatever has accumulated when the stream ends before
// initialCols columns arrived — the short-seed case, surfaced in
// Stats().ShortSeed instead of silently absorbed. Finishing an already
// seeded feeder is a no-op; fewer than two buffered columns is an error.
func (f *Feeder) Finish() error {
	if f.seeded {
		return nil
	}
	if f.Pending() < 2 {
		return fmt.Errorf("stream: source yielded %d initial columns, need at least 2", f.Pending())
	}
	f.stats.ShortSeed = true
	return f.seed(f.pending.C)
}

// seed runs InitialFit on the first cols pending columns and feeds any
// overflow as the first partial fit.
func (f *Feeder) seed(cols int) error {
	first, rest := f.pending, (*mat.Dense)(nil)
	if first.C > cols {
		rest = first.ColSlice(cols, first.C)
		first = first.ColSlice(0, cols)
	}
	start := time.Now()
	if err := f.inc.InitialFit(first); err != nil {
		return err
	}
	f.stats.InitialFit = time.Since(start)
	f.stats.InitialColumns = first.C
	f.stats.Columns = first.C
	f.seeded = true
	f.pending = nil
	if rest != nil {
		return f.feed(rest)
	}
	return nil
}

func (f *Feeder) feed(b *mat.Dense) error {
	t0 := time.Now()
	if _, err := f.inc.PartialFit(b); err != nil {
		return err
	}
	f.stats.PartialTotal += time.Since(t0)
	f.stats.Batches++
	f.stats.Columns += b.C
	return nil
}

// Pump drives an I-mrDMD analyzer from a source: the first initialCols
// columns (accumulated across batches as needed) seed InitialFit, and
// every subsequent batch becomes one PartialFit. initialCols must be at
// least 2; when the source exhausts first, the accumulated columns (if at
// least two) seed a shorter initial window and the returned stats carry
// ShortSeed — check it when the seed width matters.
func Pump(inc *core.Incremental, src Source, initialCols int) (*PumpStats, error) {
	f, err := NewFeeder(inc, initialCols)
	if err != nil {
		return nil, err
	}
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if err := f.Push(b); err != nil {
			return nil, err
		}
	}
	if err := SourceErr(src); err != nil {
		return nil, err
	}
	if err := f.Finish(); err != nil {
		return nil, err
	}
	return &f.stats, nil
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
func ReadCSV(r io.Reader) (*mat.Dense, error) {
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
