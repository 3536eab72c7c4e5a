package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"imrdmd"
	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/server"
	"imrdmd/internal/stream"
)

// workload is one input set and traffic mix. README.md records why each
// was chosen and which layer it exercises or bypasses.
type workload struct {
	name        string
	full, smoke shape
	// windows adds the flat-horizon options (drift/amplitude windows and
	// the f32 cold tier) to the streaming configuration.
	windows bool
	served  bool
	run     func(r *run, d *dataset) error
}

var workloads = []*workload{
	{
		name:   "sclog_stream",
		full:   shape{p: 200, seedCols: 2000, batchCols: 40, batches: 100, restores: 3},
		smoke:  shape{p: 24, seedCols: 256, batchCols: 40, batches: 6, restores: 1},
		served: true,
		run:    runSCLogStream,
	},
	{
		name:  "theta_wide_lib",
		full:  shape{p: 4392, seedCols: 720, batchCols: 40, batches: 25, restores: 1},
		smoke: shape{p: 64, seedCols: 288, batchCols: 40, batches: 4, restores: 1},
		run:   runThetaWideLib,
	},
	{
		name:   "dashboard_mix",
		full:   shape{p: 200, seedCols: 2000, batchCols: 40, batches: 100, restores: 8, rate: 20},
		smoke:  shape{p: 24, seedCols: 256, batchCols: 40, batches: 8, restores: 1, rate: 100},
		served: true,
		run:    runDashboardMix,
	},
	{
		name:    "longrun_tiered",
		full:    shape{p: 48, seedCols: 512, batchCols: 40, warmTo: 16392, batches: 500, restores: 8},
		smoke:   shape{p: 12, seedCols: 128, batchCols: 40, warmTo: 648, batches: 8, restores: 1},
		windows: true,
		served:  true,
		run:     runLongrunTiered,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tenantOptions is the streaming configuration the README documents,
// {"dt":20,"max_levels":6,"max_cycles":2,"use_svht":true,"parallel":true,
// "block_columns":8}, seeded with the workload's seed width; longrun_tiered
// adds the flat-horizon windows and a cold tier.
func (w *workload) tenantOptions(s shape) server.TenantOptions {
	o := server.TenantOptions{
		DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8,
		InitialCols: s.seedCols,
	}
	if w.windows {
		o.DriftWindow, o.AmplitudeWindow, o.ColdHorizon = 64, 64, 512
	}
	return o
}

// coreOptions is tenantOptions as the analyzer sees it, for the replay.
func (w *workload) coreOptions(s shape) core.Options {
	o := w.tenantOptions(s)
	return core.Options{
		DT: o.DT, MaxLevels: o.MaxLevels, MaxCycles: o.MaxCycles, UseSVHT: o.UseSVHT,
		Parallel: o.Parallel, BlockColumns: o.BlockColumns,
		DriftWindow: o.DriftWindow, AmplitudeWindow: o.AmplitudeWindow, ColdHorizon: o.ColdHorizon,
	}
}

// libOptions is tenantOptions for the public library.
func (w *workload) libOptions(s shape) imrdmd.Options {
	o := w.tenantOptions(s)
	return imrdmd.Options{
		DT: o.DT, MaxLevels: o.MaxLevels, MaxCycles: o.MaxCycles, UseSVHT: o.UseSVHT,
		Parallel: o.Parallel, BlockColumns: o.BlockColumns,
		DriftWindow: o.DriftWindow, AmplitudeWindow: o.AmplitudeWindow, ColdHorizon: o.ColdHorizon,
	}
}

// dataset is one run's input, generated from -seed before the clock
// starts: the SC-Log sensor matrix and the request bodies cut from it.
// Every round replays the same bodies.
//
// The matrix is one fixed SC-Log series (dataSeed) with its sensors in
// the order -seed shuffles them to. Reordering the rows of a matrix
// leaves its singular values, DMD eigenvalues and reconstruction error
// unchanged, so every seed gives different bytes on the wire but the same
// ranks, modes and work per batch. A new job schedule per seed would
// change the ranks, and with them the cost of a batch: over ten such
// seeds the timings spread several times wider than over ten runs of one.
type dataset struct {
	data    *mat.Dense
	seedCSV []byte   // the seed columns as a CSV ingest body
	warm    [][]byte // warm-up batches, several per JSON body
	bodies  [][]byte // measured batches, one per JSON body
}

// warmPerBody batches go in one warm-up request; warm-up is not timed.
const warmPerBody = 16

// dataSeed generates the SC-Log series every run shuffles (see dataset).
const dataSeed = 1

func newDataset(w *workload, s shape, seed int64) (*dataset, error) {
	d := &dataset{data: sensorData(s, seed)}
	if !w.served {
		return d, nil
	}
	var buf bytes.Buffer
	if err := stream.WriteCSV(&buf, d.data.ColSlice(0, s.seedCols)); err != nil {
		return nil, err
	}
	d.seedCSV = buf.Bytes()
	at := s.seedCols
	if s.warmTo > 0 && (s.warmTo-s.seedCols)%s.batchCols != 0 {
		return nil, fmt.Errorf("warm-up from %d to %d columns is not whole batches of %d", s.seedCols, s.warmTo, s.batchCols)
	}
	for at < s.warmTo {
		n := min(warmPerBody, (s.warmTo-at)/s.batchCols)
		body, err := jsonBody(d.data, at, n, s.batchCols)
		if err != nil {
			return nil, err
		}
		d.warm = append(d.warm, body)
		at += n * s.batchCols
	}
	for k := 0; k < s.batches; k++ {
		body, err := jsonBody(d.data, at, 1, s.batchCols)
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, body)
		at += s.batchCols
	}
	return d, nil
}

// sensorData is the P×cols matrix of one run: the dataSeed series with
// its rows in a random order drawn from seed.
func sensorData(s shape, seed int64) *mat.Dense {
	m := bench.SCLogData(s.p, s.cols(), dataSeed)
	out := mat.NewDense(m.R, m.C)
	for i, src := range rand.New(rand.NewSource(seed)).Perm(m.R) {
		copy(out.Row(i), m.Row(src))
	}
	return out
}

// jsonBody encodes n consecutive batches of cols columns from column at
// as back-to-back JSON batch objects.
func jsonBody(m *mat.Dense, at, n, cols int) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for k := 0; k < n; k++ {
		b := m.ColSlice(at+k*cols, at+(k+1)*cols)
		rows := make([][]float64, b.R)
		for i := range rows {
			rows[i] = b.Row(i)
		}
		if err := enc.Encode(stream.JSONBatch{Data: rows}); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// runSCLogStream: one client, closed loop. Each round creates a tenant,
// seeds it over CSV, posts the batches and reads /spectrum after each,
// restores the tenant from its snapshot, and deletes it.
func runSCLogStream(r *run, d *dataset) error {
	svc := startService(r.tr)
	defer svc.close()
	c := svc.dial()
	defer c.close()
	opts := r.wl.tenantOptions(r.shape)
	var served, snap []byte
	err := r.rounds(func(i int) error {
		tr := r.traced(i)
		id := fmt.Sprintf("sclog-%d", i)
		if err := r.setupTenant(c, tr, id, opts, d.seedCSV); err != nil {
			return err
		}
		steps := 0
		for _, b := range d.bodies {
			var err error
			if steps, err = r.ingest(c, tr, id, b, time.Time{}); err != nil {
				return err
			}
			if _, err := r.get(c, tr, id, "/spectrum", nil); err != nil {
				return err
			}
		}
		if err := r.checkSteps(steps); err != nil {
			return err
		}
		st, err := r.stats(c, id)
		if err != nil {
			return err
		}
		r.residentMiB = float64(st.ResidentBytes) / mib
		if i == 0 {
			if served, err = r.fetch(c, http.MethodGet, tenantPath(id)+"/spectrum", http.StatusOK); err != nil {
				return err
			}
		}
		if snap, err = r.restoreCycles(c, tr, id, r.shape.restores); err != nil {
			return err
		}
		_, err = r.fetch(c, http.MethodDelete, tenantPath(id), http.StatusNoContent)
		return err
	})
	if err != nil {
		return err
	}
	if err := r.checkReplay(d, served); err != nil {
		return err
	}
	return r.reconFromSnapshot(snap)
}

// runDashboardMix: one tenant per round with an open-loop writer on one
// connection (rate batches/s, latency from each batch's due time) and a
// closed-loop poller on a second connection round-robining the four read
// endpoints, revalidating with If-None-Match on three polls of a path in
// four and refetching in full on the fourth.
func runDashboardMix(r *run, d *dataset) error {
	svc := startService(r.tr)
	defer svc.close()
	writer, poller := svc.dial(), svc.dial()
	defer writer.close()
	defer poller.close()
	opts := r.wl.tenantOptions(r.shape)
	interval := time.Duration(float64(time.Second) / r.shape.rate)
	var snap []byte
	err := r.rounds(func(i int) error {
		tr := r.traced(i)
		id := fmt.Sprintf("dash-%d", i)
		if err := r.setupTenant(writer, tr, id, opts, d.seedCSV); err != nil {
			return err
		}
		done := make(chan struct{})
		polled := make(chan pollResult, 1)
		go func() { polled <- poll(poller, tr, id, done) }()
		start := time.Now()
		var werr error
		for k, b := range d.bodies {
			due := start.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(due))
			if _, werr = r.ingest(writer, tr, id, b, due); werr != nil {
				break
			}
		}
		close(done)
		pr := <-polled
		r.attempted += len(pr.reads)
		for _, d := range pr.reads {
			r.addRead(d)
		}
		if werr != nil {
			return werr
		}
		if err := r.op(pr.err); err != nil {
			return err
		}
		if err := r.checkPolls(pr.obs); err != nil {
			return err
		}
		st, err := r.stats(writer, id)
		if err != nil {
			return err
		}
		if err := r.checkSteps(st.Steps); err != nil {
			return err
		}
		r.residentMiB = float64(st.ResidentBytes) / mib
		if snap, err = r.restoreCycles(writer, tr, id, r.shape.restores); err != nil {
			return err
		}
		_, err = r.fetch(writer, http.MethodDelete, tenantPath(id), http.StatusNoContent)
		return err
	})
	if err != nil {
		return err
	}
	return r.reconFromSnapshot(snap)
}

// pollObs is what one poll saw, kept for the checks after the phase.
type pollObs struct {
	path    string
	status  int
	version uint64
	inm     string // If-None-Match sent ("" when unconditional)
	etag    string
}

type pollResult struct {
	reads []time.Duration
	obs   []pollObs
	err   error
}

var pollPaths = []string{"/spectrum", "/modes", "/error", "/stats"}

// refetchEvery: one poll of a path in refetchEvery is unconditional, the
// others send If-None-Match. Nearly every conditional poll is answered
// 304, so about three quarters of the reads are 304s. With half the polls
// conditional the read median sat on the edge between the 304 and 200
// latencies and jumped between them from run to run.
const refetchEvery = 4

// poll reads until done is closed. It keeps its own samples so that the
// writer and the poller share no state while the phase runs.
func poll(c *conn, tr *tracer, id string, done <-chan struct{}) pollResult {
	var res pollResult
	count := map[string]int{}
	etag := map[string]string{}
	for k := 0; ; k++ {
		select {
		case <-done:
			return res
		default:
		}
		path := pollPaths[k%len(pollPaths)]
		count[path]++
		var hdr map[string]string
		inm := ""
		if count[path]%refetchEvery != 1 && etag[path] != "" {
			inm = etag[path]
			hdr = map[string]string{"If-None-Match": inm}
		}
		rep, err := c.do(tr, "read", http.MethodGet, tenantPath(id)+path, "", nil, hdr)
		if err := expect(rep, err, http.StatusOK, http.StatusNotModified); err != nil {
			res.err = err // counted by the caller
			return res
		}
		res.reads = append(res.reads, rep.dur())
		res.obs = append(res.obs, pollObs{path: path, status: rep.status, version: rep.version, inm: inm, etag: rep.etag})
		if rep.status == http.StatusOK {
			etag[path] = rep.etag
		}
	}
}

// runLongrunTiered: one client, closed loop, on a tenant with the
// flat-horizon options. Each round seeds a tenant, warms it up untimed to
// warmTo columns, then posts the measured batches with a /stats read
// after each, restores from the snapshot and deletes.
func runLongrunTiered(r *run, d *dataset) error {
	svc := startService(r.tr)
	defer svc.close()
	c := svc.dial()
	defer c.close()
	opts := r.wl.tenantOptions(r.shape)
	var snap []byte
	err := r.rounds(func(i int) error {
		tr := r.traced(i)
		id := fmt.Sprintf("long-%d", i)
		if err := r.setupTenant(c, tr, id, opts, d.seedCSV); err != nil {
			return err
		}
		for _, b := range d.warm {
			rep, err := c.do(nil, "", http.MethodPost, tenantPath(id)+"/ingest", ctJSON, b, nil)
			if err := r.op(expect(rep, err, http.StatusOK)); err != nil {
				return err
			}
		}
		steps := 0
		for k, b := range d.bodies {
			if k > 0 && k%probeEvery == 0 {
				r.sampleHost()
			}
			var err error
			if steps, err = r.ingest(c, tr, id, b, time.Time{}); err != nil {
				return err
			}
			if _, err := r.get(c, tr, id, "/stats", nil); err != nil {
				return err
			}
		}
		if err := r.checkSteps(steps); err != nil {
			return err
		}
		st, err := r.stats(c, id)
		if err != nil {
			return err
		}
		cold := tamper(r, "cold", st.RawColdCols, func(int) int { return 0 })
		if err := r.check("cold", positive(cold, "raw_cold_cols")); err != nil {
			return err
		}
		r.residentMiB = float64(st.ResidentBytes) / mib
		if snap, err = r.restoreCycles(c, tr, id, r.shape.restores); err != nil {
			return err
		}
		_, err = r.fetch(c, http.MethodDelete, tenantPath(id), http.StatusNoContent)
		return err
	})
	if err != nil {
		return err
	}
	return r.reconFromSnapshot(snap)
}

// runThetaWideLib drives the public imrdmd package directly: no HTTP, no
// decode, no publish. Each round builds an analyzer (New + InitialFit),
// absorbs the batches with PartialFit, reads Spectrum after each, then
// snapshots it, drops it and restores it with imrdmd.Restore.
func runThetaWideLib(r *run, d *dataset) error {
	s := r.shape
	opts := r.wl.libOptions(s)
	seedS := seriesOf(d.data, 0, s.seedCols)
	var batches []*imrdmd.Series
	for k := 0; k < s.batches; k++ {
		at := s.seedCols + k*s.batchCols
		batches = append(batches, seriesOf(d.data, at, at+s.batchCols))
	}
	norm := d.data.FrobNorm()
	// At P=4392 an analyzer holds a few hundred MiB; the series are now
	// the rounds' only copy of the data. A traced run regenerates it.
	d.data = nil
	snapLen := 0
	return r.rounds(func(i int) error {
		tr := r.traced(i)
		start := time.Now()
		a, err := imrdmd.New(opts)
		if err := r.op(err); err != nil {
			return err
		}
		if err := r.op(a.InitialFit(seedS)); err != nil {
			return err
		}
		end := time.Now()
		r.addSetup(end.Sub(start))
		tr.add(span{Name: "lib.setup"}, start, end)
		for _, b := range batches {
			t0 := time.Now()
			_, err := a.PartialFit(b)
			t1 := time.Now()
			if err := r.op(err); err != nil {
				return err
			}
			a.Spectrum()
			t2 := time.Now()
			r.attempted++
			r.addIngest(tr, t1.Sub(t0), t1.Sub(t0))
			r.late = append(r.late, t0.Sub(end))
			r.addRead(t2.Sub(t1))
			tr.add(span{Name: "lib.partial_fit"}, t0, t1)
			tr.add(span{Name: "lib.read"}, t1, t2)
			end = t2
		}
		if err := r.checkSteps(a.Steps()); err != nil {
			return err
		}
		ms := a.MemStats()
		r.residentMiB = float64(ms.HotBytes+ms.ColdBytes) / mib
		var snap bytes.Buffer
		snap.Grow(snapLen)
		if err := r.op(a.Snapshot(&snap)); err != nil {
			return err
		}
		snapLen = snap.Len()
		want := a.Spectrum()
		a = nil
		runtime.GC() // collecting the original is not part of the restore
		t0 := time.Now()
		back, err := imrdmd.Restore(bytes.NewReader(snap.Bytes()))
		t1 := time.Now()
		if err := r.op(err); err != nil {
			return err
		}
		r.addRestore(t1.Sub(t0))
		tr.add(span{Name: "lib.restore"}, t0, t1)
		got := tamper(r, "restore", back.Spectrum(), func(p []imrdmd.SpectrumPoint) []imrdmd.SpectrumPoint {
			return append([]imrdmd.SpectrumPoint{{Freq: 1}}, p...)
		})
		if err := r.check("restore", sameSpectrum(got, want)); err != nil || i > 0 {
			return err
		}
		// The restored analyzer holds the same state; measuring on it lets
		// the original go before the full reconstruction is allocated.
		rel := tamper(r, "recon", back.ReconstructionError()/norm, func(float64) float64 { return 1 })
		r.reconRelErr = rel
		return r.check("recon", atMost(rel, maxReconRelErr, "recon_rel_err"))
	})
}

// maxReconRelErr bounds theta_wide_lib's relative reconstruction error,
// the threshold of paperbench's case-1 shape check. Every seed reads
// 0.078 at this shape (see dataset); a broken decomposition reads near 1.
const maxReconRelErr = 0.15

// seriesOf copies columns [lo, hi) of m into a Series.
func seriesOf(m *mat.Dense, lo, hi int) *imrdmd.Series {
	c := m.ColSlice(lo, hi)
	return imrdmd.FromDense(c.R, c.C, c.Data)
}
