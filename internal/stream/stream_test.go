package stream

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"imrdmd/internal/bench"
	"imrdmd/internal/compute"
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

// TestReadCSVReadError: a body that fails mid-read fails as it did when
// encoding/csv read it straight from the reader. Records before the
// error still parse first, so a malformed one is reported instead, and
// the read error stays matchable with errors.Is.
func TestReadCSVReadError(t *testing.T) {
	errCut := errors.New("connection reset")
	for _, prefix := range []string{"", "1,2\n3,4\n", "1,2\n3", "1,\"2\n", "1,2\n3\n", "1,a\"b\n2,3\n"} {
		r := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(errCut)) }
		_, err := ReadCSV(r())
		_, want := readCSVRecords(r())
		if err == nil || want == nil || err.Error() != want.Error() || errors.Is(err, errCut) != errors.Is(want, errCut) {
			t.Errorf("prefix %q: ReadCSV err = %v, encoding/csv on the reader: %v", prefix, err, want)
		}
	}
}

// TestFeederRejectsTinyInitialCols: seeding InitialFit with every
// accumulated column when initialCols < 2 would hide a misconfigured seed
// width, so NewFeeder rejects it up front.
func TestFeederRejectsTinyInitialCols(t *testing.T) {
	for _, ic := range []int{-3, 0, 1} {
		inc := core.NewIncremental(core.Options{DT: 1})
		if _, err := NewFeeder(inc, ic); err == nil {
			t.Fatalf("initialCols=%d accepted", ic)
		} else if !strings.Contains(err.Error(), "initialCols") {
			t.Fatalf("initialCols=%d: unhelpful error %v", ic, err)
		}
	}
}

// TestFeederPushSeedsAndStreams: push-based ingestion buffers until the
// seed width, seeds InitialFit with exactly that many columns, absorbs
// the overflow of the seeding push as the first PartialFit, and streams
// one PartialFit per later push. The fitted state must equal an analyzer
// driven by hand on that schedule, with or without overflow.
func TestFeederPushSeedsAndStreams(t *testing.T) {
	opts := core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true}
	for _, c := range []struct{ cols, seed, batch int }{
		{400, 150, 100}, // 50 columns spill from the second push
		{500, 150, 200}, // 50 spill from the first push; the last is short
		{640, 256, 128}, // seed aligned with the batches: no spill
	} {
		data := randMatrix(13, 8, c.cols)
		inc := core.NewIncremental(opts)
		f, err := NewFeeder(inc, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < c.cols; lo += c.batch {
			hi := min(lo+c.batch, c.cols)
			if err := f.Push(data.ColSlice(lo, hi)); err != nil {
				t.Fatal(err)
			}
			if hi < c.seed && (f.Seeded() || f.Pending() != hi) {
				t.Fatalf("%+v after %d cols: seeded=%v pending=%d", c, hi, f.Seeded(), f.Pending())
			}
		}
		if !f.Seeded() || f.Pending() != 0 {
			t.Fatalf("%+v: seeded=%v pending=%d after the stream", c, f.Seeded(), f.Pending())
		}

		ref := core.NewIncremental(opts)
		if err := ref.InitialFit(data.ColSlice(0, c.seed)); err != nil {
			t.Fatal(err)
		}
		seedPush := (c.seed + c.batch - 1) / c.batch * c.batch
		fits := [][2]int{}
		if seedPush > c.seed {
			fits = append(fits, [2]int{c.seed, seedPush})
		}
		for lo := seedPush; lo < c.cols; lo += c.batch {
			fits = append(fits, [2]int{lo, min(lo+c.batch, c.cols)})
		}
		for _, w := range fits {
			if _, err := ref.PartialFit(data.ColSlice(w[0], w[1])); err != nil {
				t.Fatal(err)
			}
		}
		if inc.Cols() != c.cols || inc.Updates() != len(fits) {
			t.Fatalf("%+v: absorbed %d columns in %d updates, want %d in %d", c, inc.Cols(), inc.Updates(), c.cols, len(fits))
		}
		got, want := inc.Spectrum(), ref.Spectrum()
		if len(got) != len(want) {
			t.Fatalf("%+v: %d spectrum points, the hand-driven schedule %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: spectrum point %d is %+v, the hand-driven schedule %+v", c, i, got[i], want[i])
			}
		}
	}
}

// pumpAll pushes every remaining batch of src through f and fails the
// test on a push error or a terminal source error.
func pumpAll(t *testing.T, f *Feeder, src Source) {
	t.Helper()
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		if err := f.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := SourceErr(src); err != nil {
		t.Fatal(err)
	}
}

// TestPumpDrivesIncremental: pumping a batched source through a Feeder
// with a seed width aligned to the batches seeds on exactly that many
// columns and then absorbs one PartialFit per streamed block.
func TestPumpDrivesIncremental(t *testing.T) {
	data := randMatrix(4, 8, 640)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true})
	f, err := NewFeeder(inc, 256)
	if err != nil {
		t.Fatal(err)
	}
	src := FromMatrix(data, 128)
	for seen := 0; seen < 256; seen += 128 {
		b, _ := src.Next()
		if err := f.Push(b); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Seeded() || inc.Cols() != 256 || inc.Updates() != 0 {
		t.Fatalf("after the seed: seeded=%v cols=%d updates=%d, want seeded on 256 with no updates", f.Seeded(), inc.Cols(), inc.Updates())
	}
	pumpAll(t, f, src)
	if inc.Cols() != 640 {
		t.Fatalf("Columns = %d want 640", inc.Cols())
	}
	if inc.Updates() != 3 {
		t.Fatalf("Updates = %d want 3 (one per streamed block)", inc.Updates())
	}
}

// TestPumpSpillHandling: when the seeding batch overshoots the seed width,
// the seed takes exactly initialCols columns and the overflow is absorbed
// rather than dropped.
func TestPumpSpillHandling(t *testing.T) {
	data := randMatrix(5, 8, 500)
	inc := core.NewIncremental(core.Options{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true})
	f, err := NewFeeder(inc, 150)
	if err != nil {
		t.Fatal(err)
	}
	src := FromMatrix(data, 200)
	b, _ := src.Next()
	if err := f.Push(b); err != nil {
		t.Fatal(err)
	}
	if !f.Seeded() || f.Pending() != 0 || inc.Cols() != 200 || inc.Updates() != 1 {
		t.Fatalf("after the first batch: seeded=%v pending=%d cols=%d updates=%d, want a 150-column seed plus one 50-column update",
			f.Seeded(), f.Pending(), inc.Cols(), inc.Updates())
	}
	pumpAll(t, f, src)
	if inc.Cols() != 500 {
		t.Fatalf("Columns = %d want 500", inc.Cols())
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
	if inc.Cols() != 300 || inc.Updates() != 1 {
		t.Fatalf("resume absorbed %d columns in %d updates, want 300 in 1", inc.Cols(), inc.Updates())
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

// TestReadAllGrowsTowardHint: past maxPrealloc a body of known length
// grows straight to its declared size, allocating about the cap plus its
// own length, while a body that declares far more than it sends gets a
// buffer of at most maxGrowth times what it sent.
func TestReadAllGrowsTowardHint(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789"), 7*maxPrealloc/10)
	var b []byte
	var err error
	n := allocatedBy(func() { b, err = readAll(lenReader{bytes.NewReader(big), len(big)}) })
	if err != nil || !bytes.Equal(b, big) {
		t.Fatalf("readAll of %d bytes returned %d bytes, %v", len(big), len(b), err)
	}
	if cap(b) != len(big)+1 {
		t.Fatalf("a %d-byte body declared at its length ended in a %d-byte buffer", len(big), cap(b))
	}
	// Each large allocation rounds up to whole 8 KiB pages.
	if limit := uint64(maxPrealloc + len(big) + 16<<10); n > limit {
		t.Fatalf("readAll of %d declared bytes allocated %d bytes, over %d", len(big), n, limit)
	}
	for _, sent := range []int{maxPrealloc + 1, 3 * maxPrealloc, 20 * maxPrealloc} {
		body := bytes.Repeat([]byte{'7'}, sent)
		n := allocatedBy(func() { b, err = readAll(lenReader{bytes.NewReader(body), 128 << 20}) })
		if err != nil || !bytes.Equal(b, body) {
			t.Fatalf("readAll of %d bytes declared at 128 MiB: %d bytes, %v", sent, len(b), err)
		}
		if cap(b) > maxGrowth*len(b) || n > uint64(2*maxGrowth*len(b)) {
			t.Fatalf("%d bytes declared at 128 MiB got a %d-byte buffer and %d bytes allocated", sent, cap(b), n)
		}
	}
}

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
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

// refCSV is the reader ReadCSV's plain-form fast path stands beside —
// encoding/csv, then strconv.ParseFloat on every field — kept as the
// reference FuzzReadCSV holds ReadCSV to.
func refCSV(body []byte) (*mat.Dense, error) {
	cr := csv.NewReader(bytes.NewReader(body))
	cr.FieldsPerRecord = -1
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
	out := mat.NewDense(len(rows), len(rows[0]))
	for i, rec := range rows {
		if len(rec) != out.C {
			return nil, fmt.Errorf("stream: ragged CSV: row %d has %d fields, want %d", i, len(rec), out.C)
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

// sameMatrix reports whether a and b have the same shape and the same
// Float64bits everywhere.
func sameMatrix(a, b *mat.Dense) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// FuzzReadCSV holds ReadCSV to refCSV: both accept or both reject every
// body, with the same error text, and an accepted body reads to the same
// shape and Float64bits. An accepted matrix also survives a WriteCSV →
// ReadCSV round trip bit for bit. The seeds cover the plain form the fast
// path takes (LF, CRLF, no final newline, -0, 1E5, 20 digits) and each
// way out of it (a blank line, +1, a leading space, quotes, 0123, 1.,
// .5, hex, 1e400, a ragged last record, the #shape headers).
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
		rt.String(), extreme.String(), strings.ReplaceAll(rt.String(), "\n", "\r\n"),
		strings.TrimSuffix(rt.String(), "\n"), "1,2\n\n3,4\n", "1,2\r\n3,4", "1,2\n3,4\r",
		"", "1,2\n3,nope\n", "1,2\n3\n", "1,2\n3,4,5\n", `"1","2"` + "\n", `1,"2"` + "\n",
		"+1,2\n", " 1,2\n", "0123,1\n", "1.,2\n", ".5,1\n", "1E5,-0\n", "0x1p3,1\n",
		"12345678901234567890,1\n", "0.12345678901234567890123e-5,1\n", "1e-400,2\n",
		"#shape,0,0\n", "#shape,5,0\n", "#shape,0,7\n",
		"#shape,1,1\n", "#shape,3\n", "#shape,-1,0\n", "#shape,0,0\n1,2\n",
		"1,NaN\n2,3\n", "1,2\n+Inf,3\n", "1,2\n3,-inf\n", "1e400,1\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := ReadCSV(bytes.NewReader(body))
		want, werr := refCSV(body)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("ReadCSV(%q) err = %v, reference err = %v", body, err, werr)
		}
		if err != nil {
			return
		}
		if !sameMatrix(m, want) {
			t.Fatalf("ReadCSV(%q) = %d×%d %v, reference %d×%d %v", body, m.R, m.C, m.Data, want.R, want.C, want.Data)
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
		if !sameMatrix(back, m) {
			t.Fatalf("round trip of %q: %d×%d → %d×%d", body, m.R, m.C, back.R, back.C)
		}
	})
}

// TestReadPlainCSVBands parses small plain bodies cut into 1 to 4 bands,
// one per lane of engines of 1 to 4 lanes (and serially, on a nil
// engine): with four records of equal length and four bands every
// record boundary is a band edge, and every cut must read to refCSV's
// bits. A body that leaves the plain form in any band is refused whole.
func TestReadPlainCSVBands(t *testing.T) {
	m := mat.NewDenseData(4, 3, []float64{10, 11.5, -12, 20, 21.5, -22, 30, 31.5, -32, 40, 41.5, -42})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	lf := buf.String()
	engines := []*compute.Engine{nil}
	for lanes := 1; lanes <= 4; lanes++ {
		e := compute.NewEngine(lanes)
		defer e.Close()
		engines = append(engines, e)
	}
	for _, body := range []string{lf, strings.ReplaceAll(lf, "\n", "\r\n"), strings.TrimSuffix(lf, "\n")} {
		if got, want := bandEdges([]byte(body), 4), []int{0, len(body) / 4, len(body) / 2, 3 * len(body) / 4, len(body)}; strings.HasSuffix(body, "\n") && !slices.Equal(got, want) {
			t.Fatalf("bandEdges(%q, 4) = %v, want every record boundary %v", body, got, want)
		}
		for _, e := range engines {
			got := readPlainCSV(e, []byte(body))
			if want, err := refCSV([]byte(body)); err != nil || got == nil || !sameMatrix(got, want) {
				t.Fatalf("%q in %d bands: %v, reference %v, %v", body, e.Workers(), got, want, err)
			}
		}
	}
	for _, body := range []string{lf + "\n", lf + "50,51\n", strings.Replace(lf, "40", "+40", 1), strings.Replace(lf, "21.5", `"21.5"`, 1)} {
		for _, e := range engines {
			if got := readPlainCSV(e, []byte(body)); got != nil {
				t.Fatalf("%q in %d bands read as plain: %v", body, e.Workers(), got.Data)
			}
		}
	}
}

// BenchmarkReadCSV reads one tenant seed body of the repository
// benchmark's form, the SC-Log series at 200 sensors × 2000 columns: the
// stream.csv_decode layer on its own.
func BenchmarkReadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, bench.SCLogData(200, 2000, 1)); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		r.Reset(body)
		if m, err := ReadCSV(r); err != nil || m.R != 200 || m.C != 2000 {
			b.Fatal("wrong seed", err)
		}
	}
}
