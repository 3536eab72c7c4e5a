package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Client operations are root spans
// (Parent 0) whose ID is also the Op every span they cause carries; the
// handler span the server middleware records, and the replay and probe
// spans, hang below them.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"` // HTTP status of client ops
	Bytes  int64  `json:"bytes,omitempty"`  // body bytes read or decoded
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out only when the run
// ends, so recording costs a lock and an append. A nil *tracer records
// nothing, which is how untraced rounds run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id (for a client op whose handler span must name
// it as parent before the op's own span is recorded).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; a zero s.ID gets a fresh id.
func (t *tracer) add(s span, start, end time.Time) {
	if t == nil {
		return
	}
	s.Start, s.End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
}

// timed runs fn as a span named name below parent.
func (t *tracer) timed(name string, parent int64, fn func()) {
	start := time.Now()
	fn()
	t.add(span{Name: name, Parent: parent, Op: parent}, start, time.Now())
}

// byName returns the recorded spans called name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.byName(name) {
		out = append(out, s.dur())
	}
	return out
}

// transport pairs each client span called op with the handler span it
// caused (named handler) and returns client duration − handler duration:
// the time spent outside the server's handler (loopback TCP, HTTP framing
// on both sides, the client's body read).
func (t *tracer) transport(op, handler string) []time.Duration {
	inner := make(map[int64]time.Duration)
	for _, s := range t.byName(handler) {
		inner[s.Parent] = s.dur()
	}
	var out []time.Duration
	for _, s := range t.byName(op) {
		if h, ok := inner[s.ID]; ok {
			out = append(out, s.dur()-h)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// opHeader carries "<op id> <kind>" from a traced client op to the server
// middleware, which records the handler span as the op's child.
const opHeader = "X-Bench-Op"

// traceHandler wraps the server's handler: requests carrying opHeader get
// a "server.<kind>" span from the start of ServeHTTP to the handler's
// first WriteHeader or Write — the time the server spends producing the
// response. Writing the body out overlaps its delivery to the client and
// counts as transport. Other requests pass straight through.
func traceHandler(next http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(opHeader)
		if tag == "" {
			next.ServeHTTP(w, r)
			return
		}
		fw := &firstWrite{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(fw, r)
		if fw.at.IsZero() {
			fw.at = time.Now()
		}
		idStr, kind, _ := strings.Cut(tag, " ")
		id, _ := strconv.ParseInt(idStr, 10, 64) // the bench's own header
		t.add(span{Name: "server." + kind, Parent: id, Op: id}, start, fw.at)
	})
}

// firstWrite notes when a handler starts its response.
type firstWrite struct {
	http.ResponseWriter
	at time.Time
}

func (f *firstWrite) WriteHeader(code int) {
	if f.at.IsZero() {
		f.at = time.Now()
	}
	f.ResponseWriter.WriteHeader(code)
}

func (f *firstWrite) Write(b []byte) (int, error) {
	if f.at.IsZero() {
		f.at = time.Now()
	}
	return f.ResponseWriter.Write(b)
}
