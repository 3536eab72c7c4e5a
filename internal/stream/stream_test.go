package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
)

func randMatrix(seed int64, r, c int) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := mat.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = 50 + 5*math.Sin(float64(i)/40) + rng.NormFloat64()
	}
	return m
}

func TestFromMatrixBatches(t *testing.T) {
	data := randMatrix(1, 4, 10)
	src := FromMatrix(data, 3)
	if src.Rows() != 4 {
		t.Fatalf("Rows = %d", src.Rows())
	}
	var sizes []int
	var all *mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		sizes = append(sizes, b.C)
		if all == nil {
			all = b
		} else {
			all = mat.HStack(all, b)
		}
	}
	want := []int{3, 3, 3, 1}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v want %v", sizes, want)
		}
	}
	if d := mat.Sub(all, data).FrobNorm(); d != 0 {
		t.Fatal("batches do not reassemble the matrix")
	}
}

func TestFromMatrixExhausted(t *testing.T) {
	src := FromMatrix(randMatrix(2, 2, 4), 4)
	if _, ok := src.Next(); !ok {
		t.Fatal("first Next should succeed")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted source still yields")
	}
}

func TestFromFuncMatchesMatrix(t *testing.T) {
	data := randMatrix(3, 5, 20)
	gen := func(t0, t1 int) *mat.Dense { return data.ColSlice(t0, t1) }
	src := FromFunc(gen, 5, 20, 7)
	var all *mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if all == nil {
			all = b
		} else {
			all = mat.HStack(all, b)
		}
	}
	if d := mat.Sub(all, data).FrobNorm(); d != 0 {
		t.Fatal("FromFunc batches do not reassemble the matrix")
	}
}

func TestPumpDrivesIncremental(t *testing.T) {
	data := randMatrix(4, 8, 640)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true})
	src := FromMatrix(data, 128)
	stats, err := Pump(inc, src, 256)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InitialColumns != 256 {
		t.Fatalf("InitialColumns = %d want 256", stats.InitialColumns)
	}
	if stats.Columns != 640 || inc.Cols() != 640 {
		t.Fatalf("Columns = %d / %d want 640", stats.Columns, inc.Cols())
	}
	if stats.Batches != 3 {
		t.Fatalf("Batches = %d want 3 (one per streamed block)", stats.Batches)
	}
	if stats.MeanPartial() < 0 || stats.MeanPartial() != stats.TotalPartial()/time.Duration(stats.Batches) {
		t.Fatal("timing accounting inconsistent")
	}
}

// TestPumpSpillHandling: initial columns not aligned to batch size — the
// overflow must become the first partial fit.
func TestPumpSpillHandling(t *testing.T) {
	data := randMatrix(5, 8, 500)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	stats, err := Pump(inc, FromMatrix(data, 200), 150)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InitialColumns != 150 {
		t.Fatalf("InitialColumns = %d want 150", stats.InitialColumns)
	}
	if stats.Columns != 500 {
		t.Fatalf("Columns = %d want 500", stats.Columns)
	}
}

func TestPumpTooFewColumns(t *testing.T) {
	inc := core.NewIncremental(core.Options{DT: 1})
	if _, err := Pump(inc, FromMatrix(mat.NewDense(3, 1), 1), 4); err == nil {
		t.Fatal("want error for starved source")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	data := randMatrix(6, 7, 13)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.Sub(got, data).FrobNorm(); d != 0 {
		t.Fatalf("CSV round trip deviates by %g", d)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,2\n3,nope\n")); err == nil {
		t.Fatal("bad float accepted")
	}
	got, err := ReadCSV(strings.NewReader(""))
	if err != nil || got.R != 0 {
		t.Fatal("empty CSV should give empty matrix")
	}
}

// TestPumpRejectsTinyInitialCols: the old behavior silently seeded
// InitialFit with every accumulated column when initialCols < 2 (the
// spill split was skipped); now the misconfiguration is rejected up
// front.
func TestPumpRejectsTinyInitialCols(t *testing.T) {
	data := randMatrix(11, 6, 64)
	for _, ic := range []int{-3, 0, 1} {
		inc := core.NewIncremental(core.Options{DT: 1})
		if _, err := Pump(inc, FromMatrix(data, 16), ic); err == nil {
			t.Fatalf("initialCols=%d accepted", ic)
		} else if !strings.Contains(err.Error(), "initialCols") {
			t.Fatalf("initialCols=%d: unhelpful error %v", ic, err)
		}
	}
}

// TestPumpShortSeedSurfaced: a source that exhausts below initialCols
// still seeds (with what arrived) but the stats say so.
func TestPumpShortSeedSurfaced(t *testing.T) {
	data := randMatrix(12, 6, 96)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	stats, err := Pump(inc, FromMatrix(data, 32), 256)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ShortSeed {
		t.Fatal("short seed not surfaced")
	}
	if stats.InitialColumns != 96 || stats.Batches != 0 {
		t.Fatalf("short seed absorbed wrong: initial %d, batches %d", stats.InitialColumns, stats.Batches)
	}
	// The normal path must not set the flag.
	inc2 := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	stats2, err := Pump(inc2, FromMatrix(data, 32), 64)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ShortSeed {
		t.Fatal("full seed flagged short")
	}
}

// TestFeederPushSeedsAndStreams: push-based ingestion — buffer, seed at
// the requested width, stream afterwards.
func TestFeederPushSeedsAndStreams(t *testing.T) {
	data := randMatrix(13, 8, 400)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	f, err := NewFeeder(inc, 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFeeder(inc, 1); err == nil {
		t.Fatal("initialCols=1 accepted")
	}
	for c := 0; c < data.C; c += 100 {
		if err := f.Push(data.ColSlice(c, c+100)); err != nil {
			t.Fatal(err)
		}
		if c == 0 && (f.Seeded() || f.Pending() != 100) {
			t.Fatalf("after 100 cols: seeded=%v pending=%d", f.Seeded(), f.Pending())
		}
	}
	if err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.InitialColumns != 150 || st.Columns != 400 || inc.Cols() != 400 {
		t.Fatalf("feeder accounting: initial %d, columns %d, absorbed %d", st.InitialColumns, st.Columns, inc.Cols())
	}
	if st.Batches != 3 { // 50 spill + 100 + 100
		t.Fatalf("Batches = %d want 3", st.Batches)
	}
	if st.ShortSeed {
		t.Fatal("full seed flagged short")
	}
}

// TestFeederBufferGrowsAmortized: buffering before the seed keeps spare
// column capacity, so one-column pushes reallocate the pending buffer a
// logarithmic number of times instead of copying it on every push, and
// the buffered columns are the pushed ones in order.
func TestFeederBufferGrowsAmortized(t *testing.T) {
	const seedCols = 2000
	data := randMatrix(15, 8, seedCols)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	f, err := NewFeeder(inc, seedCols)
	if err != nil {
		t.Fatal(err)
	}
	reallocs := 0
	var last *float64
	for c := 0; c < seedCols-1; c++ {
		if err := f.Push(mat.ColsView(data, c, c+1)); err != nil {
			t.Fatal(err)
		}
		if p := &f.pending.Data[0]; p != last {
			reallocs++
			last = p
		}
	}
	if reallocs > 16 {
		t.Fatalf("pending buffer reallocated %d times over %d pushes", reallocs, seedCols-1)
	}
	for i := 0; i < data.R; i++ {
		for j := 0; j < seedCols-1; j++ {
			if f.pending.At(i, j) != data.At(i, j) {
				t.Fatalf("pending (%d,%d) = %v want %v", i, j, f.pending.At(i, j), data.At(i, j))
			}
		}
	}
	if err := f.Push(mat.ColsView(data, seedCols-1, seedCols)); err != nil {
		t.Fatal(err)
	}
	if !f.Seeded() || inc.Cols() != seedCols || f.Pending() != 0 {
		t.Fatalf("after the seed: seeded=%v cols=%d pending=%d", f.Seeded(), inc.Cols(), f.Pending())
	}
}

// TestResumeFeeder: a feeder over an already fitted analyzer (the
// restored-snapshot path) starts seeded and streams immediately.
func TestResumeFeeder(t *testing.T) {
	data := randMatrix(14, 8, 300)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	if err := inc.InitialFit(data.ColSlice(0, 200)); err != nil {
		t.Fatal(err)
	}
	f := ResumeFeeder(inc)
	if !f.Seeded() {
		t.Fatal("resumed feeder not seeded")
	}
	if err := f.Push(data.ColSlice(200, 300)); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Columns != 300 || st.Batches != 1 {
		t.Fatalf("resume accounting: %+v", st)
	}
}

// TestCSVDegenerateRoundTrip: the shapes plain CSV cannot represent must
// survive Write→Read unchanged via the #shape header.
func TestCSVDegenerateRoundTrip(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {5, 0}, {0, 7}} {
		var buf bytes.Buffer
		in := mat.NewDense(shape[0], shape[1])
		if err := WriteCSV(&buf, in); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		out, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if out == nil || out.R != in.R || out.C != in.C || out.Data == nil {
			t.Fatalf("%v round-tripped to %+v", shape, out)
		}
	}
}

// TestCSVNonFiniteRejected: both directions refuse NaN/±Inf with errors
// that name the cell.
func TestCSVNonFiniteRejected(t *testing.T) {
	m := randMatrix(15, 3, 4)
	m.Set(1, 2, math.Inf(-1))
	if err := WriteCSV(&bytes.Buffer{}, m); err == nil || !strings.Contains(err.Error(), "row 1 col 2") {
		t.Fatalf("Inf write: %v", err)
	}
	m.Set(1, 2, math.NaN())
	if err := WriteCSV(&bytes.Buffer{}, m); err == nil {
		t.Fatal("NaN write accepted")
	}
	for _, in := range []string{"1,NaN\n2,3\n", "1,2\n+Inf,3\n", "1,2\n3,-inf\n"} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%q read: %v", in, err)
		}
	}
}

// TestCSVExtremeFiniteValues: the largest/smallest finite values must
// survive the text round trip exactly.
func TestCSVExtremeFiniteValues(t *testing.T) {
	in := mat.NewDense(2, 2)
	in.Set(0, 0, math.MaxFloat64)
	in.Set(0, 1, -math.MaxFloat64)
	in.Set(1, 0, math.SmallestNonzeroFloat64)
	in.Set(1, 1, -0.0)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("element %d: %v != %v", i, out.Data[i], in.Data[i])
		}
	}
}

// TestJSONSourceBatches: concatenated batch objects stream in order and
// reassemble the matrix.
func TestJSONSourceBatches(t *testing.T) {
	body := `{"data":[[1,2],[3,4]]}{"data":[[5],[6]]}` + "\n" + `{"data":[[7,8,9],[10,11,12]]}`
	src, err := FromJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if src.Rows() != 2 {
		t.Fatalf("Rows = %d", src.Rows())
	}
	var all *mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if all == nil {
			all = b
		} else {
			all = mat.HStack(all, b)
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 5, 7, 8, 9, 3, 4, 6, 10, 11, 12}
	if all.R != 2 || all.C != 6 {
		t.Fatalf("reassembled %d×%d", all.R, all.C)
	}
	for i, v := range want {
		if all.Data[i] != v {
			t.Fatalf("element %d = %v want %v", i, all.Data[i], v)
		}
	}
}

// TestJSONSourceErrors: empty body, ragged batches and row-count changes
// all fail with latched errors.
func TestJSONSourceErrors(t *testing.T) {
	if _, err := FromJSON(strings.NewReader("")); err == nil {
		t.Fatal("empty body accepted")
	}
	if _, err := FromJSON(strings.NewReader(`{"data":[[1,2],[3]]}`)); err == nil {
		t.Fatal("ragged batch accepted")
	}
	src, err := FromJSON(strings.NewReader(`{"data":[[1],[2]]}{"data":[[3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := src.Next(); !ok {
			break
		}
	}
	if src.Err() == nil {
		t.Fatal("row-count change not surfaced")
	}
	for _, body := range []string{
		`{"data":[]}`,                     // no rows
		`{"data":null}`,                   // no rows either
		`{"data":[[1e400]]}`,              // out of float64 range
		`{"data":[[1,"2"]]}`,              // not a number
		`{"data":[[1]]}x`,                 // trailing garbage
		`{"data":[[1],[2]]}{"data":[[3]]`, // truncated second batch
		`{"data":[[01]]}`,                 // leading zero
	} {
		if _, err := drainJSON([]byte(body)); err == nil {
			t.Errorf("%s accepted", body)
		}
	}
	// A null reading is rejected with a named error instead of decoding
	// to 0 (a null value) or to an empty row (a null row).
	for _, body := range []string{`{"data":[[1,null,3]]}`, `{"data":[null,[1]]}`} {
		if _, err := drainJSON([]byte(body)); !errors.Is(err, errJSONNull) {
			t.Errorf("%s: err = %v, want the null error", body, err)
		}
	}
}

// TestJSONSourceKeys: keys match "data" the way encoding/json matches
// them — after unescaping, case-insensitively, last one winning — and
// values under other keys are skipped.
func TestJSONSourceKeys(t *testing.T) {
	for _, body := range []string{
		`{"DATA":[[7]]}`,
		`{"d\u0061ta":[[7]]}`,
		`{"data":[[1,2],[3]],"Data":[[7]]}`,
		`{"x":{"y":[1,"]",null,true]},"data":[[7]],"z":-1.5e-3}`,
	} {
		got, err := drainJSON([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if len(got) != 1 || got[0].R != 1 || got[0].C != 1 || got[0].Data[0] != 7 {
			t.Fatalf("%s decoded to %v", body, got)
		}
	}
	if _, err := drainJSON([]byte(`{"dat\u0061x":[[7]]}`)); err == nil {
		t.Fatal("a key that is not data filled the batch")
	}
}

// drainJSON decodes body with FromJSON and a full Next loop, returning
// every batch yielded and the error that ended the stream.
func drainJSON(body []byte) ([]*mat.Dense, error) {
	src, err := FromJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var out []*mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			return out, src.Err()
		}
		out = append(out, b)
	}
}

// refJSON is the reflection decoder FromJSON replaced — encoding/json
// into a JSONBatch per object, then the shape and row-count checks —
// kept as the reference FuzzFromJSON holds the scanner to. It returns
// what drainJSON would: the batches yielded and the error that ended
// the stream.
func refJSON(body []byte) ([]*mat.Dense, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var out []*mat.Dense
	for {
		var b JSONBatch
		if err := dec.Decode(&b); err == io.EOF {
			if len(out) == 0 {
				return nil, errors.New("no batches")
			}
			return out, nil
		} else if err != nil {
			return out, err
		}
		if len(b.Data) == 0 {
			return out, errors.New("no rows")
		}
		m := mat.NewDense(len(b.Data), len(b.Data[0]))
		for i, row := range b.Data {
			if len(row) != m.C {
				return out, errors.New("ragged")
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return out, errors.New("non-finite")
				}
				m.Set(i, j, v)
			}
		}
		if len(out) > 0 && m.R != out[0].R {
			return out, errors.New("row count changed")
		}
		out = append(out, m)
	}
}

// benchBody is one JSON ingest body in the repository benchmark's form:
// the SC-Log series at p sensors, cols columns from column 2000 on. The
// benchmark itself sends p=200, cols=40.
func benchBody(tb testing.TB, p, cols int) []byte {
	tb.Helper()
	sl := bench.SCLogData(p, 2000+cols, 1).ColSlice(2000, 2000+cols)
	rows := make([][]float64, sl.R)
	for i := range rows {
		rows[i] = sl.Row(i)
	}
	body, err := json.Marshal(JSONBatch{Data: rows})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestFromJSONMatchesReference: FromJSON decodes the benchmark's P=200 ×
// 40 body to the same bits as refJSON.
func TestFromJSONMatchesReference(t *testing.T) {
	body := benchBody(t, 200, 40)
	got, err := drainJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(want) != 1 || got[0].R != want[0].R || got[0].C != want[0].C {
		t.Fatalf("decoded %d batches, reference %d", len(got), len(want))
	}
	for i, w := range want[0].Data {
		if math.Float64bits(got[0].Data[i]) != math.Float64bits(w) {
			t.Fatalf("value %d: %v, want %v", i, got[0].Data[i], w)
		}
	}
}

// TestSizeHintStaysInData: the row walk that sizes a batch stops at the
// end of its own data array, so a body that repeats "data" keys is not
// walked once per key.
func TestSizeHintStaysInData(t *testing.T) {
	for _, c := range []struct {
		rest string // what follows a data array's opening '['
		want int
	}{
		{`[1,2],[3,4]]`, 4},
		{` [1,2] ,` + "\n" + ` [3,4] ]`, 4},
		{`[1,2],[3,4]],"data":[[5,6],[7,8]]}`, 4},
		{`],"data":[]}`, 0},
		{`],"data":[],"data":[[1,2]]}`, 0},
		{`[1],"x"]`, 1},
		{`null]`, 0},
		{``, 0},
	} {
		if got := sizeHint([]byte(c.rest)); got != c.want {
			t.Errorf("sizeHint(%q) = %d, want %d", c.rest, got, c.want)
		}
	}
}

// TestJSONRepeatedDataKeys: a body of many empty "data" values decodes,
// last one winning, in time linear in its size. A walk that ran on
// through every later key would take about N²/2 steps, minutes at this N.
func TestJSONRepeatedDataKeys(t *testing.T) {
	const n = 200_000
	body := "{" + strings.Repeat(`"data":[],`, n) + `"data":[[7]]}`
	start := time.Now()
	got, err := drainJSON([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].R != 1 || got[0].C != 1 || got[0].Data[0] != 7 {
		t.Fatalf("decoded to %v", got)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("decoding %d repeated data keys took %v", n, d)
	}
}

// lenReader is a reader that reports a length of its choosing, as a
// request body reports its declared Content-Length.
type lenReader struct {
	io.Reader
	n int
}

func (r lenReader) Len() int { return r.n }

// TestReadAllCapsPrealloc: a length hint sizes the body buffer only up to
// maxPrealloc, so a body that declares far more than it sends does not
// get the declared size allocated, and a body over the cap still reads
// in full.
func TestReadAllCapsPrealloc(t *testing.T) {
	b, err := readAll(lenReader{strings.NewReader("[[1]]"), 128 << 20})
	if err != nil || string(b) != "[[1]]" {
		t.Fatalf("readAll = %q, %v", b, err)
	}
	if cap(b) > maxPrealloc+1 {
		t.Fatalf("a 5-byte body declared at 128 MiB got a %d-byte buffer", cap(b))
	}
	big := bytes.Repeat([]byte("0123456789"), 3*maxPrealloc/10)
	b, err = readAll(lenReader{bytes.NewReader(big), len(big)})
	if err != nil || !bytes.Equal(b, big) {
		t.Fatalf("readAll of %d bytes returned %d bytes, %v", len(big), len(b), err)
	}
	b, err = readAll(bytes.NewReader(big[:100]))
	if err != nil || !bytes.Equal(b, big[:100]) || cap(b) != 101 {
		t.Fatalf("readAll of a 100-byte bytes.Reader: %d bytes in %d, %v", len(b), cap(b), err)
	}
}

// FuzzFromJSON holds FromJSON to refJSON: on every input both accept or
// both reject, yield the same batches (shapes and Float64bits) before
// stopping, and so differ only where FromJSON rejects a null that
// encoding/json would have decoded as 0 or as an empty row.
func FuzzFromJSON(f *testing.F) {
	for _, body := range []string{
		// TestJSONSourceBatches and TestJSONSourceErrors.
		`{"data":[[1,2],[3,4]]}{"data":[[5],[6]]}` + "\n" + `{"data":[[7,8,9],[10,11,12]]}`,
		``, `{"data":[[1,2],[3]]}`, `{"data":[[1],[2]]}{"data":[[3]]}`,
		`{"data":[]}`, `{"data":null}`, `{"data":[[1e400]]}`, `{"data":[[1,"2"]]}`,
		`{"data":[[1],[2]]}{"data":[[3]]`, `{"data":[[1,null,3]]}`, `{"data":[null,[1]]}`,
		// Number grammar edges.
		`{"data":[[-0]]}`, `{"data":[[5e-324]]}`, `{"data":[[1.7976931348623157e308]]}`,
		`{"data":[[1E+2]]}`, `{"data":[[01]]}`, `{"data":[[1.]]}`, `{"data":[[.5]]}`,
		`{"data":[[+1]]}`, `{"data":[[NaN]]}`, `{"data":[[Infinity]]}`,
		// Keys.
		`{"data":[[1]]}`, `{"DATA":[[1]]}`, `{"d\u0041ta":[[1]]}`,
		`{"meta":{"a":[{"b":null}],"c":"\"]"},"data":[[1,2]]}`,
		`{"data":[[1,2],[3]],"data":[[4]]}`, `{"data":[[1]],"data":null}`,
		// Trailing garbage.
		`{"data":[[1]]}x`,
	} {
		f.Add([]byte(body))
	}
	// A small body of the benchmark's form. The full P=200 × 40 body is
	// checked by TestFromJSONMatchesReference instead: as a seed, its
	// 144 KB would make the fuzzer spend its time minimizing inputs grown
	// from it rather than executing new ones.
	f.Add(benchBody(f, 8, 4))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := drainJSON(body)
		if errors.Is(gerr, errJSONNull) {
			return
		}
		want, werr := refJSON(body)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("FromJSON err = %v, encoding/json err = %v", gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("FromJSON yielded %d batches, encoding/json %d", len(got), len(want))
		}
		for k, w := range want {
			g := got[k]
			if g.R != w.R || g.C != w.C {
				t.Fatalf("batch %d: %d×%d, want %d×%d", k, g.R, g.C, w.R, w.C)
			}
			for i := range w.Data {
				if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
					t.Fatalf("batch %d value %d: %v, want %v", k, i, g.Data[i], w.Data[i])
				}
			}
		}
	})
}

// BenchmarkFromJSON decodes one benchmark-shaped body (P=200, 40
// columns): the stream.json_decode layer on its own.
func BenchmarkFromJSON(b *testing.B) {
	body := benchBody(b, 200, 40)
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		r.Reset(body)
		src, err := FromJSON(r)
		if err != nil {
			b.Fatal(err)
		}
		if m, _ := src.Next(); m == nil || m.R != 200 || m.C != 40 {
			b.Fatal("wrong batch")
		}
	}
}

// FuzzReadCSV: ReadCSV either rejects its input, or returns a matrix of
// finite values that WriteCSV writes and ReadCSV reads back with the same
// shape and the same Float64bits. Seeds come from the CSV tests above,
// the #shape header cases among them.
func FuzzReadCSV(f *testing.F) {
	var rt, extreme bytes.Buffer
	if err := WriteCSV(&rt, randMatrix(13, 3, 4)); err != nil {
		f.Fatal(err)
	}
	ext := mat.NewDenseData(2, 2, []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)})
	if err := WriteCSV(&extreme, ext); err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		rt.String(), extreme.String(),
		"", "1,2\n3,nope\n", "1,2\n3\n", `"1","2"` + "\n",
		"#shape,0,0\n", "#shape,5,0\n", "#shape,0,7\n",
		"#shape,1,1\n", "#shape,3\n", "#shape,-1,0\n", "#shape,0,0\n1,2\n",
		"1,NaN\n2,3\n", "1,2\n+Inf,3\n", "1,2\n3,-inf\n", "1e400,1\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := ReadCSV(bytes.NewReader(body))
		if err != nil {
			return
		}
		if m.HasNaN() {
			t.Fatalf("ReadCSV returned a non-finite value from %q", body)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatalf("WriteCSV of a ReadCSV result: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV output %q: %v", buf.Bytes(), err)
		}
		if back.R != m.R || back.C != m.C {
			t.Fatalf("round trip %d×%d → %d×%d", m.R, m.C, back.R, back.C)
		}
		for i := range m.Data {
			if math.Float64bits(back.Data[i]) != math.Float64bits(m.Data[i]) {
				t.Fatalf("element %d: %v round-tripped to %v", i, m.Data[i], back.Data[i])
			}
		}
	})
}
