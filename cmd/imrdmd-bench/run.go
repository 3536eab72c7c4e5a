package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// shape sizes one workload. Every round of a workload does the same work
// on the same data, so a run of any length samples one distribution and
// a slower commit simply completes fewer rounds.
type shape struct {
	p         int     // sensors (rows)
	seedCols  int     // columns the tenant is seeded with
	batchCols int     // columns per ingest batch
	warmTo    int     // absorbed columns reached before measuring (0: none)
	batches   int     // measured batches per round
	restores  int     // snapshot restores per round
	rate      float64 // open-loop writer, batches per second (0: closed loop)
}

// cols is the number of data columns one round consumes.
func (s shape) cols() int {
	return max(s.seedCols, s.warmTo) + s.batches*s.batchCols
}

// minRounds is the fewest rounds a run completes, however short -seconds
// is: set-up is timed once per round, and a traced run alternates traced
// and untraced rounds to measure the tracing overhead.
const minRounds = 2

// run is the state of one workload run: its inputs, the samples every
// round adds, and the correctness record.
type run struct {
	wl      *workload
	seed    int64
	shape   shape
	seconds time.Duration
	tr      *tracer // non-nil in a traced run
	// corrupt names a correctness check whose observed value is replaced
	// by a wrong one before the check runs; bench_test.go uses it to show
	// each check rejects a wrong result. Empty in real runs.
	corrupt string

	ingestLat   [2][]time.Duration // [traced round?] per-batch latency
	late        []time.Duration    // generator lateness (see run.ingest)
	residentMiB float64
	reconRelErr float64
	// wins are the closed windows, cur the open one (see window).
	wins []*window
	cur  *window

	attempted, failed int
	errs              []string

	layer  map[string]float64 // per-layer results of a traced run
	stride int                // level-1 grid stride of the replayed analyzer
	probes []float64          // host probe times (ms), see hostprobe.go
}

// window holds the operations timed between two samples of the host
// probe: a round, or probeEvery batches of a long round.
type window struct {
	lat, svc       []time.Duration // per batch: latency, service time
	read           []time.Duration
	setup, restore []time.Duration
}

func (w *window) empty() bool {
	return len(w.lat)+len(w.read)+len(w.setup)+len(w.restore) == 0
}

// traced reports whether round i records spans: every other round of a
// traced run, so the untraced rounds between give the overhead baseline.
func (r *run) traced(i int) *tracer {
	if r.tr != nil && i%2 == 0 {
		return r.tr
	}
	return nil
}

// rounds calls fn for round 0, 1, … until the run's time is up, and at
// least minRounds times, sampling the host probe between rounds.
func (r *run) rounds(fn func(i int) error) error {
	deadline := time.Now().Add(r.seconds)
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		r.sampleHost()
		if err := fn(i); err != nil {
			return err
		}
	}
	r.sampleHost()
	return nil
}

// sampleHost times the host probe probesPerSample times, closes the open
// window if it holds samples and opens the next. It first runs a full GC,
// so that neither the probe nor the operations after it pay for
// collecting the garbage of those before: a change that allocates less
// must not speed up the probe.
func (r *run) sampleHost() {
	runtime.GC()
	for k := 0; k < probesPerSample; k++ {
		r.probes = append(r.probes, probeHost())
	}
	if w := r.cur; w != nil && !w.empty() {
		r.wins = append(r.wins, w)
	}
	r.cur = &window{}
}

// window returns the open window.
func (r *run) window() *window {
	if r.cur == nil {
		r.sampleHost()
	}
	return r.cur
}

// hostFactor is how much slower than the reference speed the host ran
// during this run (NaN before any round).
func (r *run) hostFactor() float64 {
	return medianF(r.probes) / refProbeMs
}

// op counts one attempted operation and records its failure.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
	return err
}

// errCheck aborts a run whose correctness check failed.
var errCheck = errors.New("correctness check failed")

// check counts one correctness check; a failure fails the run.
func (r *run) check(name string, err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("check %s: %v", name, err))
		return errCheck
	}
	return nil
}

// tamper returns v, or wrong(v) when the run was asked to corrupt the
// named check.
func tamper[T any](r *run, check string, v T, wrong func(T) T) T {
	if r.corrupt == check {
		return wrong(v)
	}
	return v
}

// addIngest records one batch of shape.batchCols columns: its latency
// and the time the writer was busy with it.
func (r *run) addIngest(traced *tracer, lat, service time.Duration) {
	k := 0
	if traced != nil {
		k = 1
	}
	r.ingestLat[k] = append(r.ingestLat[k], lat)
	w := r.window()
	w.lat = append(w.lat, lat)
	w.svc = append(w.svc, service)
}

func (r *run) addRead(d time.Duration) {
	w := r.window()
	w.read = append(w.read, d)
}

// addSetup records the time to bring one tenant or analyzer from nothing
// to seeded.
func (r *run) addSetup(d time.Duration) {
	w := r.window()
	w.setup = append(w.setup, d)
}

// addRestore records one snapshot restore.
func (r *run) addRestore(d time.Duration) {
	w := r.window()
	w.restore = append(w.restore, d)
}

// Selectors of one kind of sample from a window.
var (
	latOf     = func(w *window) []time.Duration { return w.lat }
	svcOf     = func(w *window) []time.Duration { return w.svc }
	readOf    = func(w *window) []time.Duration { return w.read }
	setupOf   = func(w *window) []time.Duration { return w.setup }
	restoreOf = func(w *window) []time.Duration { return w.restore }
)

// all returns one kind of sample from every closed window.
func (r *run) all(of func(*window) []time.Duration) []time.Duration {
	var ds []time.Duration
	for _, w := range r.wins {
		ds = append(ds, of(w)...)
	}
	return ds
}

// endToEnd computes the user-facing metrics from the samples, with times
// divided and rates multiplied by the host factor f (1 for the values as
// measured). Ingest and read figures are computed per window and the
// median over windows is reported: a GC pause or a burst of CPU steal
// that stretches a few operations then moves one window's figure, not
// the run's, where a mean over every sample of the run would carry it.
// Set-up and restore, a few per window, are medians over the run.
func (r *run) endToEnd(f float64) map[string]float64 {
	p50 := func(ds []time.Duration) float64 { return pct(ds, 0.5, time.Millisecond) / f }
	cols := func(ds []time.Duration) float64 { return float64(r.shape.batchCols) * rate(ds) * f }
	reads := func(ds []time.Duration) float64 { return rate(ds) * f }
	return map[string]float64{
		"setup_s":           pct(r.all(setupOf), 0.5, time.Second) / f,
		"ingest_p50_ms":     r.perWindow(latOf, p50),
		"ingest_cols_per_s": r.perWindow(svcOf, cols),
		"read_p50_ms":       r.perWindow(readOf, p50),
		"reads_per_s":       r.perWindow(readOf, reads),
		"restore_ms":        p50(r.all(restoreOf)),
		"resident_mib":      r.residentMiB,
	}
}

// perWindow returns the median over the closed windows that hold samples
// of value(samples); NaN when no window holds samples.
func (r *run) perWindow(of func(*window) []time.Duration, value func([]time.Duration) float64) float64 {
	var xs []float64
	for _, w := range r.wins {
		if ds := of(w); len(ds) > 0 {
			xs = append(xs, value(ds))
		}
	}
	return medianF(xs)
}

// extras are printed and written to -out beside the declared metrics:
// the end-to-end metrics as measured (raw.*) and the host factor that
// scales them, sample counts, and the tail percentiles over the whole
// run, as measured.
func (r *run) extras() map[string]float64 {
	ingest, reads := r.all(latOf), r.all(readOf)
	x := map[string]float64{
		"ingest_samples":  float64(len(ingest)),
		"ingest_p90_ms":   pct(ingest, 0.9, time.Millisecond),
		"ingest_p99_ms":   pct(ingest, 0.99, time.Millisecond),
		"read_samples":    float64(len(reads)),
		"read_p90_ms":     pct(reads, 0.9, time.Millisecond),
		"read_p99_ms":     pct(reads, 0.99, time.Millisecond),
		"setup_samples":   float64(len(r.all(setupOf))),
		"restore_samples": float64(len(r.all(restoreOf))),
		"windows":         float64(len(r.wins)),
		"recon_rel_err":   r.reconRelErr,
		"late_p90_ms":     pct(r.late, 0.9, time.Millisecond),
		"host_factor":     r.hostFactor(),
	}
	for k, v := range r.endToEnd(1) {
		x["raw."+k] = v
	}
	return x
}

const mib = 1 << 20
