package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"imrdmd/internal/compute"
	"imrdmd/internal/core"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
	"imrdmd/internal/svd"
)

// layers runs the traced run's extra passes after the rounds and fills
// r.layer. Everything is timed from outside, by calling each layer's
// public functions:
//
//   - a replay pushes one round's seed and request bodies through
//     stream (decode) → core.Incremental.PartialFit → core.View, the
//     steps the ingest handler takes;
//   - the codec decodes the replayed analyzer's snapshot;
//   - theta_wide_lib, which has no server, posts its first batches to a
//     tenant restored from its seeded state, so the server and stream
//     layers are measured at its shape too;
//   - probes call the svd, dmd and mat kernels at the workload's shapes.
func (r *run) layers(d *dataset) error {
	if d.data == nil {
		d.data = sensorData(r.shape, r.seed)
	}
	seedSnap, err := r.replay(d)
	if err != nil {
		return err
	}
	if !r.wl.served {
		if err := r.servedProbe(d, seedSnap); err != nil {
			return err
		}
	}
	if err := r.probeKernels(d); err != nil {
		return err
	}
	r.spanMetrics()
	return nil
}

// replay feeds one round through the layers below the HTTP handler. It
// returns the snapshot of the freshly seeded analyzer.
func (r *run) replay(d *dataset) ([]byte, error) {
	tr, s := r.tr, r.shape
	root := tr.newID()
	var seed *mat.Dense
	if d.seedCSV != nil {
		var err error
		for k := 0; k < 3; k++ {
			start := time.Now()
			seed, err = stream.ReadCSV(bytes.NewReader(d.seedCSV))
			tr.add(span{Name: "stream.csv_decode", Parent: root, Op: root, Bytes: int64(len(d.seedCSV))}, start, time.Now())
			if err := r.op(err); err != nil {
				return nil, err
			}
		}
	} else {
		// No seed body on this workload's path: measure the CSV decoder on
		// one batch-sized body instead.
		seed = d.data.ColSlice(0, s.seedCols)
		var buf bytes.Buffer
		if err := r.op(stream.WriteCSV(&buf, d.data.ColSlice(s.seedCols, s.seedCols+s.batchCols))); err != nil {
			return nil, err
		}
		for k := 0; k < 3; k++ {
			start := time.Now()
			_, err := stream.ReadCSV(bytes.NewReader(buf.Bytes()))
			tr.add(span{Name: "stream.csv_decode", Parent: root, Op: root, Bytes: int64(buf.Len())}, start, time.Now())
			if err := r.op(err); err != nil {
				return nil, err
			}
		}
	}
	inc := core.NewIncremental(r.wl.coreOptions(s))
	var err error
	tr.timed("core.initial_fit", root, func() { err = inc.InitialFit(seed) })
	if err := r.op(err); err != nil {
		return nil, err
	}
	var seedSnap bytes.Buffer
	if err := r.op(inc.Snapshot(&seedSnap)); err != nil {
		return nil, err
	}
	for _, body := range d.warm {
		src, err := stream.FromJSON(bytes.NewReader(body))
		if err := r.op(err); err != nil {
			return nil, err
		}
		for b, ok := src.Next(); ok; b, ok = src.Next() {
			if _, err := inc.PartialFit(b); r.op(err) != nil {
				return nil, err
			}
		}
	}
	var allocs, heap uint64
	var samples, batches int
	var m0, m1 runtime.MemStats
	for k := 0; k < s.batches; k++ {
		body, err := r.body(d, k)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		src, err := stream.FromJSON(bytes.NewReader(body))
		var got []*mat.Dense
		if err == nil {
			for b, ok := src.Next(); ok; b, ok = src.Next() {
				got = append(got, b)
			}
			err = stream.SourceErr(src)
		}
		tr.add(span{Name: "stream.json_decode", Parent: root, Op: root, Bytes: int64(len(body))}, start, time.Now())
		if err := r.op(err); err != nil {
			return nil, err
		}
		for _, b := range got {
			runtime.ReadMemStats(&m0)
			var st core.UpdateStats
			tr.timed("core.partial_fit", root, func() { st, err = inc.PartialFit(b) })
			runtime.ReadMemStats(&m1)
			if err := r.op(err); err != nil {
				return nil, err
			}
			allocs += m1.Mallocs - m0.Mallocs
			heap += m1.TotalAlloc - m0.TotalAlloc
			samples += st.NewSamples
			batches++
		}
		tr.timed("core.view", root, func() { inc.View() })
	}
	r.layer["core.allocs_per_batch"] = float64(allocs) / float64(batches)
	r.layer["core.bytes_per_batch"] = float64(heap) / float64(batches)
	r.layer["core.grid_samples_per_batch"] = float64(samples) / float64(batches)
	r.stride = inc.Tree().Nodes[0].Stride

	var snap bytes.Buffer
	if err := r.op(inc.Snapshot(&snap)); err != nil {
		return nil, err
	}
	inc = nil
	r.layer["codec.snapshot_mib"] = float64(snap.Len()) / mib
	for k := 0; k < 3; k++ {
		runtime.GC()
		tr.timed("codec.decode", root, func() { _, err = core.DecodeIncremental(bytes.NewReader(snap.Bytes())) })
		if err := r.op(err); err != nil {
			return nil, err
		}
	}
	return seedSnap.Bytes(), nil
}

// body returns measured batch k as a JSON ingest body: the request body
// itself on a served workload, encoded here for the library workload.
func (r *run) body(d *dataset, k int) ([]byte, error) {
	if d.bodies != nil {
		return d.bodies[k], nil
	}
	at := r.shape.seedCols + k*r.shape.batchCols
	return jsonBody(d.data, at, 1, r.shape.batchCols)
}

// servedProbeBatches bounds the served probe of the library workload.
const servedProbeBatches = 10

// servedProbe restores the seeded analyzer into a server tenant and posts
// the workload's first batches with a /spectrum read after each, traced,
// so the server layer metrics exist at this workload's shape. Its
// samples do not enter the end-to-end metrics.
func (r *run) servedProbe(d *dataset, seedSnap []byte) error {
	svc := startService(r.tr)
	defer svc.close()
	c := svc.dial()
	defer c.close()
	id := "probe"
	rep, err := c.do(r.tr, "restore", http.MethodPut, tenantPath(id), "application/octet-stream", seedSnap, nil)
	if err := r.op(expect(rep, err, http.StatusCreated)); err != nil {
		return err
	}
	for k := 0; k < min(servedProbeBatches, r.shape.batches); k++ {
		body, err := r.body(d, k)
		if err != nil {
			return err
		}
		rep, err := c.do(r.tr, "ingest", http.MethodPost, tenantPath(id)+"/ingest", ctJSON, body, nil)
		if err := r.op(expect(rep, err, http.StatusOK)); err != nil {
			return err
		}
		rep, err = c.do(r.tr, "read", http.MethodGet, tenantPath(id)+"/spectrum", "", nil, nil)
		if err := r.op(expect(rep, err, http.StatusOK)); err != nil {
			return err
		}
	}
	return nil
}

// Probe repetitions; each probe reports the median.
const (
	probeReps = 20
	probeRank = 64 // the streaming level-1 rank cap at these options
	probeW    = 8  // block_columns
)

// probeKernels times the kernels at the workload's own shapes: the Brand
// update on the level-1 grid (stride from the replayed tree), the window
// SVD and DMD on P×batchCols windows, and the projection GEMM.
func (r *run) probeKernels(d *dataset) error {
	tr, s := r.tr, r.shape
	root := tr.newID()
	eng := compute.Shared(0)
	stride := max(r.stride, 1)
	grid := d.data.Subsample(stride)
	ns := (s.seedCols + stride - 1) / stride // grid columns inside the seed
	if ns < 2 || grid.C <= ns {
		return r.op(fmt.Errorf("probe: level-1 grid of %d columns leaves no update samples", grid.C))
	}
	incWS := compute.NewWorkspace()
	inc := svd.NewIncrementalWith(eng, incWS, grid.ColSlice(0, ns-1), min(probeRank, s.p))
	per := max(1, (s.batchCols+stride-1)/stride)
	for at := ns - 1; at+per <= grid.C && at < ns-1+probeReps*per; at += per {
		block := grid.ColSlice(at, at+per)
		tr.timed("svd.update_block", root, func() { inc.UpdateBlock(block, probeW) })
	}
	gets, hits := inc.WorkspaceStats()
	r.layer["compute.ws_hit_ratio"] = float64(hits) / float64(max(gets, 1))

	ws := compute.NewWorkspace()
	for k := 0; k < probeReps; k++ {
		at := (k * s.batchCols) % (d.data.C - s.batchCols)
		win := d.data.ColSlice(at, at+s.batchCols)
		x := win.ColSlice(0, win.C-1)
		var res *svd.Result
		tr.timed("svd.window_svd", root, func() { res = svd.ComputeWith(eng, ws, x) })
		var err error
		tr.timed("dmd.from_svd", root, func() {
			_, err = dmd.FromSVD(res, win, dmd.Options{DT: 20, UseSVHT: true, Engine: eng, Ws: ws})
		})
		if err := r.op(err); err != nil {
			return err
		}
	}

	u := inc.ResultView().U
	b := d.data.ColSlice(0, probeW)
	dst := mat.NewDense(u.C, probeW)
	reps := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond || reps < 10 {
		mat.MulTIntoWith(eng, dst, u, b)
		reps++
	}
	elapsed := time.Since(start)
	tr.add(span{Name: "mat.proj", Parent: root, Op: root}, start, start.Add(elapsed))
	flops := 2 * float64(u.R) * float64(u.C) * probeW * float64(reps)
	r.layer["mat.proj_gflops"] = flops / elapsed.Seconds() / 1e9
	return nil
}

// spanMetrics derives the span-based per-layer metrics.
func (r *run) spanMetrics() {
	tr, L := r.tr, r.layer
	msOf := func(name string, q float64) float64 { return pct(tr.durations(name), q, time.Millisecond) }
	L["server.ingest_handler_ms"] = msOf("server.ingest", 0.5)
	L["server.transport_ms"] = pct(tr.transport("client.ingest", "server.ingest"), 0.5, time.Millisecond)
	L["server.read_handler_us"] = pct(tr.durations("server.read"), 0.5, time.Microsecond)
	L["server.read_transport_us"] = pct(tr.transport("client.read", "server.read"), 0.5, time.Microsecond)
	reads := tr.byName("client.read")
	var notModified int
	for _, s := range reads {
		if s.Status == http.StatusNotModified {
			notModified++
		}
	}
	L["server.not_modified_ratio"] = float64(notModified) / float64(len(reads))
	L["server.read_body_bytes"] = meanBytes(reads)

	L["stream.json_decode_ms"] = msOf("stream.json_decode", 0.5)
	L["stream.json_decode_mb_per_s"] = throughput(tr.byName("stream.json_decode"))
	L["stream.csv_decode_mb_per_s"] = throughput(tr.byName("stream.csv_decode"))
	L["core.initial_fit_ms"] = msOf("core.initial_fit", 0.5)
	L["core.partial_fit_ms"] = msOf("core.partial_fit", 0.5)
	L["core.partial_fit_p90_ms"] = msOf("core.partial_fit", 0.9)
	L["core.view_ms"] = msOf("core.view", 0.5)
	L["core.recon_rel_err"] = r.reconRelErr
	L["svd.update_block_ms"] = msOf("svd.update_block", 0.5)
	L["svd.window_svd_ms"] = msOf("svd.window_svd", 0.5)
	L["dmd.from_svd_ms"] = msOf("dmd.from_svd", 0.5)
	L["codec.decode_ms"] = msOf("codec.decode", 0.5)
	L["loadgen.late_p90_ms"] = pct(r.late, 0.9, time.Millisecond)
	L["bench.host_factor"] = r.hostFactor()
	L["bench.trace_overhead_pct"] = 100 * (pct(r.ingestLat[1], 0.5, time.Millisecond)/pct(r.ingestLat[0], 0.5, time.Millisecond) - 1)
	// The share of the ingest handler's median that the replayed layers
	// explain; the rest is reading the request body off the socket,
	// routing, tenant lookup, the publish bookkeeping besides the view,
	// and the response write.
	L["bench.handler_coverage_pct"] = 100 * (L["stream.json_decode_ms"] + L["core.partial_fit_ms"] + L["core.view_ms"]) / L["server.ingest_handler_ms"]
}

func meanBytes(ss []span) float64 {
	var n int64
	for _, s := range ss {
		n += s.Bytes
	}
	return float64(n) / float64(len(ss))
}

// throughput is the spans' total bytes over their total time, in MB/s.
func throughput(ss []span) float64 {
	var n int64
	var t time.Duration
	for _, s := range ss {
		n += s.Bytes
		t += s.dur()
	}
	return float64(n) / 1e6 / t.Seconds()
}
