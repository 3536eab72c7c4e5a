package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
)

// testClient wraps an httptest server with the request helpers the suite
// repeats.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, s *Server) *testClient {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &testClient{t: t, srv: srv}
}

// do issues a request and returns status and body.
func (c *testClient) do(method, path, contentType string, body []byte) (int, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// must asserts the expected status and returns the body.
func (c *testClient) must(method, path, contentType string, body []byte, wantCode int) []byte {
	c.t.Helper()
	code, out := c.do(method, path, contentType, body)
	if code != wantCode {
		c.t.Fatalf("%s %s: status %d want %d (%s)", method, path, code, wantCode, out)
	}
	return out
}

// csvBody renders columns [lo, hi) of data as a CSV ingest body.
func csvBody(t *testing.T, data *mat.Dense, lo, hi int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stream.WriteCSV(&buf, data.ColSlice(lo, hi)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jsonBody renders columns [lo, hi) of data as one JSON batch object.
func jsonBody(t *testing.T, data *mat.Dense, lo, hi int) []byte {
	t.Helper()
	sl := data.ColSlice(lo, hi)
	rows := make([][]float64, sl.R)
	for i := range rows {
		rows[i] = sl.Row(i)
	}
	out, err := json.Marshal(stream.JSONBatch{Data: rows})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceAnalyzer replays the same stream schedule the test drives over
// HTTP, directly against a core analyzer.
func referenceAnalyzer(t *testing.T, data *mat.Dense, opts TenantOptions, seedCols, step, until int) *core.Incremental {
	t.Helper()
	copts := opts.toCore(nil)
	copts.Workers = 4
	inc := core.NewIncremental(copts)
	if err := inc.InitialFit(data.ColSlice(0, seedCols)); err != nil {
		t.Fatal(err)
	}
	for c := seedCols; c < until; c += step {
		if _, err := inc.PartialFit(data.ColSlice(c, c+step)); err != nil {
			t.Fatal(err)
		}
	}
	return inc
}

// spectraMatch compares a server spectrum response against a reference
// analyzer's to tol.
func spectraMatch(t *testing.T, label string, body []byte, ref *core.Incremental, tol float64) {
	t.Helper()
	var got []SpectrumPoint
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := ref.Tree().Spectrum()
	if len(got) != len(want) {
		t.Fatalf("%s: %d spectrum points vs %d", label, len(got), len(want))
	}
	for i, wp := range want {
		gp := got[i]
		if d := math.Abs(gp.Freq - wp.Freq); d > tol*(1+math.Abs(wp.Freq)) {
			t.Fatalf("%s point %d: freq %v vs %v", label, i, gp.Freq, wp.Freq)
		}
		if d := math.Abs(gp.Power - wp.Power); d > tol*(1+wp.Power) {
			t.Fatalf("%s point %d: power %v vs %v", label, i, gp.Power, wp.Power)
		}
	}
}

// TestServerTenantLifecycle walks one tenant through create → seed →
// stream → query → delete over CSV ingest.
func TestServerTenantLifecycle(t *testing.T) {
	data := bench.SCLogData(48, 768, 1)
	s := New(Config{Workers: 4, DefaultInitialCols: 512})
	c := newTestClient(t, s)

	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"block_columns":8}`)
	c.must("POST", "/v1/tenants/theta", "application/json", opts, http.StatusCreated)

	// Under-seed ingest buffers without fitting.
	body := c.must("POST", "/v1/tenants/theta/ingest", "text/csv", csvBody(t, data, 0, 256), http.StatusOK)
	var ing struct {
		Seeded  bool `json:"seeded"`
		Pending int  `json:"pending"`
	}
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Seeded || ing.Pending != 256 {
		t.Fatalf("pre-seed state: %+v", ing)
	}
	// Query endpoints refuse before the seed.
	c.must("GET", "/v1/tenants/theta/spectrum", "", nil, http.StatusConflict)
	c.must("GET", "/v1/tenants/theta/snapshot", "", nil, http.StatusConflict)

	// Crossing the seed width fits and spills the excess into a partial fit.
	c.must("POST", "/v1/tenants/theta/ingest", "text/csv", csvBody(t, data, 256, 640), http.StatusOK)
	c.must("POST", "/v1/tenants/theta/ingest", "text/csv", csvBody(t, data, 640, 768), http.StatusOK)

	ref := referenceAnalyzer(t, data, TenantOptions{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, BlockColumns: 8}, 512, 128, 768)
	spectraMatch(t, "lifecycle", c.must("GET", "/v1/tenants/theta/spectrum", "", nil, http.StatusOK), ref, 1e-12)

	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/theta/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 768 || !st.Seeded || st.Ingests != 3 {
		t.Fatalf("stats: %+v", st)
	}
	var me struct {
		Modes int `json:"modes"`
	}
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/theta/modes", "", nil, http.StatusOK), &me); err != nil {
		t.Fatal(err)
	}
	if me.Modes != ref.Tree().NumModes() {
		t.Fatalf("modes %d vs reference %d", me.Modes, ref.Tree().NumModes())
	}

	c.must("DELETE", "/v1/tenants/theta", "", nil, http.StatusNoContent)
	c.must("GET", "/v1/tenants/theta/stats", "", nil, http.StatusNotFound)
}

// TestServerDriftRecomputePublished: a tenant with drift_threshold set
// recomputes old subtrees inside the ingest that measured the drift, so
// the result published with each ingest response already carries the
// recompute — /stats counts it and /modes and /spectrum show the refitted
// tree, exactly as a fresh View of the analyzer builds them.
func TestServerDriftRecomputePublished(t *testing.T) {
	data := bench.SCLogData(16, 1024, 2)
	s := New(Config{Workers: 2, DefaultInitialCols: 512})
	c := newTestClient(t, s)
	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"block_columns":8,"drift_threshold":1e-9}`)
	c.must("POST", "/v1/tenants/drift", "application/json", opts, http.StatusCreated)
	c.must("POST", "/v1/tenants/drift/ingest", "text/csv", csvBody(t, data, 0, 512), http.StatusOK)
	tn, err := s.lookup("drift")
	if err != nil {
		t.Fatal(err)
	}
	for lo := 512; lo < data.C; lo += 64 {
		c.must("POST", "/v1/tenants/drift/ingest", "text/csv", csvBody(t, data, lo, lo+64), http.StatusOK)
		var st TenantStatus
		if err := json.Unmarshal(c.must("GET", "/v1/tenants/drift/stats", "", nil, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		modes := c.must("GET", "/v1/tenants/drift/modes", "", nil, http.StatusOK)
		spectrum := c.must("GET", "/v1/tenants/drift/spectrum", "", nil, http.StatusOK)

		view := tn.inc.View()
		want := newPublishedResult(0, true, view, TenantStatus{})
		if st.Recomputes != view.Recomputes || st.Updates != view.Updates {
			t.Fatalf("after cols [%d,%d): /stats counts %d recomputes over %d updates, the analyzer %d over %d",
				lo, lo+64, st.Recomputes, st.Updates, view.Recomputes, view.Updates)
		}
		if wantModes, _ := want.ModesBody(); !bytes.Equal(modes, wantModes) {
			t.Fatalf("after cols [%d,%d): /modes %s, fresh view %s", lo, lo+64, modes, wantModes)
		}
		if wantSpec, _ := want.SpectrumBody(); !bytes.Equal(spectrum, wantSpec) {
			t.Fatalf("after cols [%d,%d): /spectrum differs from a fresh view (%d vs %d bytes)", lo, lo+64, len(spectrum), len(wantSpec))
		}
		if st.Recomputes != st.Updates {
			t.Fatalf("after cols [%d,%d): %d recomputes over %d updates; a 1e-9 threshold recomputes on every update",
				lo, lo+64, st.Recomputes, st.Updates)
		}
	}
}

// TestServerColdTierStats: a tenant created with the flat-horizon knobs
// demotes old history to the f32 tier, reports the tiered footprint in
// /stats, and carries the knobs (and the cold tier) across
// snapshot → restore.
func TestServerColdTierStats(t *testing.T) {
	data := bench.SCLogData(48, 1536, 3)
	s := New(Config{Workers: 4, DefaultInitialCols: 512})
	c := newTestClient(t, s)

	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"block_columns":8,` +
		`"cold_horizon":256,"drift_window":8,"amplitude_window":16}`)
	c.must("POST", "/v1/tenants/flat", "application/json", opts, http.StatusCreated)
	for lo := 0; lo < 1280; lo += 256 {
		c.must("POST", "/v1/tenants/flat/ingest", "text/csv", csvBody(t, data, lo, lo+256), http.StatusOK)
	}

	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/flat/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Options.ColdHorizon != 256 || st.Options.DriftWindow != 8 || st.Options.AmplitudeWindow != 16 {
		t.Fatalf("options lost the flat-horizon knobs: %+v", st.Options)
	}
	if st.ResidentBytes <= 0 {
		t.Fatalf("resident_bytes not reported: %d", st.ResidentBytes)
	}
	if st.RawColdCols == 0 {
		t.Fatal("raw_cold_cols = 0: cold tier never engaged")
	}
	// Cold storage halves those columns: resident must undercut all-f64.
	if allF64 := int64(48 * st.Steps * 8); st.ResidentBytes >= allF64 {
		t.Fatalf("resident_bytes %d not below the all-f64 footprint %d", st.ResidentBytes, allF64)
	}

	snap := c.must("GET", "/v1/tenants/flat/snapshot", "", nil, http.StatusOK)
	s2 := New(Config{Workers: 4, DefaultInitialCols: 512})
	c2 := newTestClient(t, s2)
	c2.must("PUT", "/v1/tenants/flat", "application/octet-stream", snap, http.StatusCreated)
	c2.must("POST", "/v1/tenants/flat/ingest", "text/csv", csvBody(t, data, 1280, 1536), http.StatusOK)
	var rst TenantStatus
	if err := json.Unmarshal(c2.must("GET", "/v1/tenants/flat/stats", "", nil, http.StatusOK), &rst); err != nil {
		t.Fatal(err)
	}
	if rst.Options.ColdHorizon != 256 || rst.Steps != 1536 || rst.RawColdCols == 0 {
		t.Fatalf("restored tenant lost tiering: %+v", rst)
	}
}

// TestServerRejects pins the client-error surface: bad options (including
// the removed "shards", "precision" and "async_recompute" knobs, now
// unknown fields), duplicate
// ids, unknown tenants, malformed and non-finite ingest bodies, and the
// tenant cap.
func TestServerRejects(t *testing.T) {
	s := New(Config{Workers: 2, MaxTenants: 2, DefaultInitialCols: 8})
	c := newTestClient(t, s)

	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"precision":"float16"}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"block_columns":-1}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"initial_cols":1}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"unknown_knob":true}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"shards":2}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"precision":"mixed"}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/bad", "application/json", []byte(`{"async_recompute":true}`), http.StatusBadRequest)

	c.must("POST", "/v1/tenants/a", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/a", "application/json", nil, http.StatusConflict)
	c.must("POST", "/v1/tenants/b", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/c", "application/json", nil, http.StatusTooManyRequests)

	c.must("POST", "/v1/tenants/nope/ingest", "text/csv", []byte("1,2\n3,4\n"), http.StatusNotFound)
	c.must("POST", "/v1/tenants/a/ingest", "text/csv", []byte("1,NaN\n2,3\n"), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/a/ingest", "application/json", []byte(`{"data":[[1,2],[3]]}`), http.StatusBadRequest)
	c.must("POST", "/v1/tenants/a/ingest", "application/pdf", []byte("x"), http.StatusBadRequest)
	c.must("PUT", "/v1/tenants/x", "application/octet-stream", []byte("not a snapshot"), http.StatusBadRequest)
}

// TestServerConcurrentTenantsSnapshotRestore is the PR's server
// acceptance criterion, run under -race in CI: two tenants with
// independent Options and ingest encodings (CSV vs JSON) ingest
// concurrently against one engine; both are snapshotted, the process
// "restarts" (a fresh Server), both restore and continue streaming; the
// final spectra must match uninterrupted reference runs to 1e-12.
func TestServerConcurrentTenantsSnapshotRestore(t *testing.T) {
	const (
		p     = 48
		total = 1024
		seed  = 512
		step  = 64
		mid   = 768 // snapshot point, between partial fits
	)
	scen := map[string]struct {
		data *mat.Dense
		opts TenantOptions
		body string // ingest encoding: csv or json
	}{
		"sclog-f64": {
			data: bench.SCLogData(p, total, 1),
			opts: TenantOptions{DT: 20, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8, InitialCols: seed},
			body: "csv",
		},
		"gpu-json": {
			data: bench.GPUData(p, total, 1),
			opts: TenantOptions{DT: 1, MaxLevels: 3, MaxCycles: 2, UseSVHT: true, Parallel: true, BlockColumns: 8, InitialCols: seed},
			body: "json",
		},
	}

	s := New(Config{Workers: 4})
	c := newTestClient(t, s)
	for id, sc := range scen {
		ob, err := json.Marshal(sc.opts)
		if err != nil {
			t.Fatal(err)
		}
		c.must("POST", "/v1/tenants/"+id, "application/json", ob, http.StatusCreated)
	}

	// Phase 1: concurrent ingest to the snapshot point.
	ingestRange := func(cl *testClient, id string, lo, hi int) {
		sc := scen[id]
		for x := lo; x < hi; x += step {
			if sc.body == "csv" {
				cl.must("POST", "/v1/tenants/"+id+"/ingest", "text/csv", csvBody(t, sc.data, x, x+step), http.StatusOK)
			} else {
				cl.must("POST", "/v1/tenants/"+id+"/ingest", "application/json", jsonBody(t, sc.data, x, x+step), http.StatusOK)
			}
		}
	}
	var wg sync.WaitGroup
	for id := range scen {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ingestRange(c, id, 0, mid)
		}(id)
	}
	// Stats polling races the in-flight ingest and must stay clean under
	// -race.
	pollDone := make(chan struct{})
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-pollDone:
				return
			default:
			}
			for id := range scen {
				resp, err := http.Get(c.srv.URL + "/v1/tenants/" + id + "/stats")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()
	wg.Wait()
	close(pollDone)
	pollWg.Wait()

	snapshots := map[string][]byte{}
	for id := range scen {
		snapshots[id] = c.must("GET", "/v1/tenants/"+id+"/snapshot", "", nil, http.StatusOK)
	}

	// Phase 2: "restart" — fresh server, restore both, continue streaming.
	s2 := New(Config{Workers: 4})
	c2 := newTestClient(t, s2)
	for id, snap := range snapshots {
		c2.must("PUT", "/v1/tenants/"+id, "application/octet-stream", snap, http.StatusCreated)
	}
	var wg2 sync.WaitGroup
	for id := range scen {
		wg2.Add(1)
		go func(id string) {
			defer wg2.Done()
			ingestRange(c2, id, mid, total)
		}(id)
	}
	wg2.Wait()

	for id, sc := range scen {
		ref := referenceAnalyzer(t, sc.data, sc.opts, seed, step, total)
		spectraMatch(t, id, c2.must("GET", "/v1/tenants/"+id+"/spectrum", "", nil, http.StatusOK), ref, 1e-12)
		var st TenantStatus
		if err := json.Unmarshal(c2.must("GET", "/v1/tenants/"+id+"/stats", "", nil, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		if st.Steps != total {
			t.Fatalf("%s: restored tenant absorbed %d steps, want %d", id, st.Steps, total)
		}
	}
}

// TestSnapshotAllRestoreDir drives the on-disk state round trip the
// serve binary uses at shutdown/boot.
func TestSnapshotAllRestoreDir(t *testing.T) {
	data := bench.SCLogData(32, 640, 1)
	dir := t.TempDir()

	s := New(Config{Workers: 2, DefaultInitialCols: 512})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/disk", "application/json", []byte(`{"dt":20,"max_levels":3,"use_svht":true}`), http.StatusCreated)
	c.must("POST", "/v1/tenants/idle", "application/json", nil, http.StatusCreated) // never seeds
	c.must("POST", "/v1/tenants/disk/ingest", "text/csv", csvBody(t, data, 0, 640), http.StatusOK)

	n, err := s.SnapshotAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("wrote %d snapshots, want 1 (unseeded tenant skipped)", n)
	}

	s2 := New(Config{Workers: 2})
	ids, err := s2.RestoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "disk" {
		t.Fatalf("restored %v", ids)
	}
	c2 := newTestClient(t, s2)
	var st TenantStatus
	if err := json.Unmarshal(c2.must("GET", "/v1/tenants/disk/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 640 || !st.Seeded {
		t.Fatalf("restored stats: %+v", st)
	}

	// Restoring into an occupied id conflicts rather than clobbering.
	if _, err := s2.RestoreDir(dir); err == nil {
		t.Fatal("duplicate restore accepted")
	}
	// Missing directory is a clean no-op (fresh deployments).
	if ids, err := New(Config{}).RestoreDir(dir + "-missing"); err != nil || len(ids) != 0 {
		t.Fatalf("missing dir: %v %v", ids, err)
	}
}

// TestHealthAndList covers the fleet-facing endpoints.
func TestHealthAndList(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	var h struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	if err := json.Unmarshal(c.must("GET", "/healthz", "", nil, http.StatusOK), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Tenants != 0 {
		t.Fatalf("health: %+v", h)
	}
	for _, id := range []string{"zeta", "alpha"} {
		c.must("POST", "/v1/tenants/"+id, "application/json", nil, http.StatusCreated)
	}
	var list []TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants", "", nil, http.StatusOK), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "zeta" {
		t.Fatalf("list: %+v", list)
	}
	if s.Tenants() != 2 {
		t.Fatalf("Tenants() = %d", s.Tenants())
	}
}

// TestTenantIDSanitized: ids become -state-dir file names, so separators
// and dot segments must be rejected (ServeMux unescapes %2F into the
// path value — a traversal id would otherwise escape the state dir).
func TestTenantIDSanitized(t *testing.T) {
	s := New(Config{Workers: 1})
	c := newTestClient(t, s)
	for _, id := range []string{"..%2Fpwn", "%2e%2e", "a%2Fb", "a%5Cb", "sp%20ace", "na%00me"} {
		code, _ := c.do("POST", "/v1/tenants/"+id, "application/json", nil)
		if code != http.StatusBadRequest && code != http.StatusNotFound {
			t.Fatalf("id %q: status %d, want rejection", id, code)
		}
	}
	// Dot-only ids never reach the handler over HTTP (path cleaning), but
	// the validator must still refuse them for any future caller.
	for _, id := range []string{".", "..", "...", ""} {
		if validTenantID(id) {
			t.Fatalf("id %q accepted by validator", id)
		}
	}
	if s.Tenants() != 0 {
		t.Fatalf("%d hostile tenants registered", s.Tenants())
	}
	c.must("POST", "/v1/tenants/ok-1._B", "application/json", nil, http.StatusCreated)
}

// TestIngestRowMismatchPreSeed: a pre-seed batch with a different sensor
// count must return 400, not panic the handler (regression: Feeder.Push
// used to hit mat.HStack's row-mismatch panic).
func TestIngestRowMismatchPreSeed(t *testing.T) {
	s := New(Config{Workers: 1, DefaultInitialCols: 64})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/rows", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/rows/ingest", "text/csv", []byte("1,2\n3,4\n"), http.StatusOK)
	c.must("POST", "/v1/tenants/rows/ingest", "text/csv", []byte("1,2\n3,4\n5,6\n"), http.StatusBadRequest)
	// The tenant is still alive and consistent after the rejection.
	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/rows/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Pending != 2 || st.Seeded {
		t.Fatalf("tenant state after rejected batch: %+v", st)
	}
}

// TestIngestFailureAbsorptionContract: the whole body decodes before any
// state is touched, so malformed or internally inconsistent bodies
// absorb NOTHING (no double-ingest risk on retry); an apply-phase
// rejection (analyzer row mismatch) reports the absorbed counts so a
// client knows exactly how far the ingest got.
func TestIngestFailureAbsorptionContract(t *testing.T) {
	data := bench.SCLogData(8, 96, 1)
	s := New(Config{Workers: 1, DefaultInitialCols: 16})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/part", "application/json", nil, http.StatusCreated)

	// Decode failure mid-body: nothing absorbed (parse happens up front,
	// before the first valid batch could have been applied).
	bad := string(jsonBody(t, data, 0, 32)) + `{"data":[[1],[2],[3]]` // truncated object
	code, _ := c.do("POST", "/v1/tenants/part/ingest", "application/json", []byte(bad))
	if code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", code)
	}
	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/part/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Seeded || st.Pending != 0 {
		t.Fatalf("malformed body absorbed columns: %+v", st)
	}
	// Same for a body whose batches disagree on row count with each other.
	mixed := string(jsonBody(t, data, 0, 32)) + `{"data":[[1,2],[3,4]]}`
	c.must("POST", "/v1/tenants/part/ingest", "application/json", []byte(mixed), http.StatusBadRequest)

	// Apply-phase rejection: seed with 8 sensors, then send a well-formed
	// body with the wrong sensor count — the response carries the
	// absorbed counts (zero here) alongside the error.
	c.must("POST", "/v1/tenants/part/ingest", "application/json", jsonBody(t, data, 0, 32), http.StatusOK)
	body := c.must("POST", "/v1/tenants/part/ingest", "application/json", []byte(`{"data":[[1,2],[3,4]]}`), http.StatusBadRequest)
	var pr struct {
		Error   string `json:"error"`
		Columns int    `json:"columns_absorbed"`
		Batches int    `json:"batches_absorbed"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Error == "" || pr.Columns != 0 || pr.Batches != 0 {
		t.Fatalf("apply-failure report: %+v", pr)
	}
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/part/stats", "", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != 32 {
		t.Fatalf("steps after rejected ingest = %d want 32", st.Steps)
	}
}

// ingestedSteps reads a tenant's absorbed column count from /stats.
func (c *testClient) ingestedSteps(id string) int {
	c.t.Helper()
	var st TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants/"+id+"/stats", "", nil, http.StatusOK), &st); err != nil {
		c.t.Fatal(err)
	}
	return st.Steps
}

// TestIngestNullRejected: a null reading or a null row is a 400 with
// nothing absorbed, not a 0 (or an empty row) fed to the analyzer.
func TestIngestNullRejected(t *testing.T) {
	data := bench.SCLogData(4, 64, 1)
	s := New(Config{Workers: 1, DefaultInitialCols: 16})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/null", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/null/ingest", "application/json", jsonBody(t, data, 0, 24), http.StatusOK)
	for _, body := range []string{
		`{"data":[[1,2],[3,null],[5,6],[7,8]]}`,
		`{"data":[null,[1],[2],[3]]}`,
	} {
		c.must("POST", "/v1/tenants/null/ingest", "application/json", []byte(body), http.StatusBadRequest)
		if got := c.ingestedSteps("null"); got != 24 {
			t.Fatalf("steps after %s = %d want 24", body, got)
		}
	}
}

// TestIngestBodyBound: an ingest body over maxIngestBody is refused with
// 413 before anything is absorbed. One whose Content-Length announces
// the excess is refused unread; a chunked one is cut off at the bound,
// exercised here with a bound just below the body's size.
func TestIngestBodyBound(t *testing.T) {
	data := bench.SCLogData(4, 64, 1)
	s := New(Config{Workers: 1, DefaultInitialCols: 16})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/big", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/big/ingest", "application/json", jsonBody(t, data, 0, 24), http.StatusOK)

	req := httptest.NewRequest("POST", "/v1/tenants/big/ingest", bytes.NewReader(jsonBody(t, data, 24, 32)))
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = maxIngestBody + 1
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit Content-Length: status %d (%s)", rec.Code, rec.Body)
	}
	if got := c.ingestedSteps("big"); got != 24 {
		t.Fatalf("steps after 413 = %d want 24", got)
	}

	for ct, body := range map[string][]byte{
		"application/json": jsonBody(t, data, 24, 32),
		"text/csv":         csvBody(t, data, 24, 32),
	} {
		for _, limit := range []int64{int64(len(body)) - 1, int64(len(body))} {
			req := httptest.NewRequest("POST", "/v1/tenants/big/ingest", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			req.ContentLength = -1 // chunked: nothing to check before reading
			_, err := bodySource(httptest.NewRecorder(), req, limit)
			var he *httpError
			switch over := limit < int64(len(body)); {
			case over && (!errors.As(err, &he) || he.code != http.StatusRequestEntityTooLarge):
				t.Fatalf("%s body of %d bytes, bound %d: err %v, want 413", ct, len(body), limit, err)
			case !over && err != nil:
				t.Fatalf("%s body of %d bytes, bound %d: %v", ct, len(body), limit, err)
			}
		}
	}
}

// serve runs one request straight through the handler, with the given
// Content-Length (-1 for a chunked body), and returns its status.
func serve(s *Server, method, path, ct string, body []byte, contentLength int64) int {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ct)
	req.ContentLength = contentLength
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// tenantCount is the number of registered tenants GET /v1/tenants lists.
func (c *testClient) tenantCount() int {
	c.t.Helper()
	var list []TenantStatus
	if err := json.Unmarshal(c.must("GET", "/v1/tenants", "", nil, http.StatusOK), &list); err != nil {
		c.t.Fatal(err)
	}
	return len(list)
}

// TestCreateBodyBound: a create body over maxCreateBody is refused with
// 413 and registers nothing, whether its Content-Length announces the
// excess (refused unread) or it is chunked and runs over while read.
func TestCreateBodyBound(t *testing.T) {
	s := New(Config{Workers: 1, DefaultInitialCols: 16})
	c := newTestClient(t, s)
	pad := func(n int) []byte { return append(bytes.Repeat([]byte(" "), n), "{}"...) }

	if code := serve(s, "POST", "/v1/tenants/big", "application/json", pad(0), maxCreateBody+1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit Content-Length: status %d, want 413", code)
	}
	if code := serve(s, "POST", "/v1/tenants/big", "application/json", pad(maxCreateBody), -1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body over the limit: status %d, want 413", code)
	}
	if n := c.tenantCount(); n != 0 {
		t.Fatalf("%d tenants registered after 413s, want 0", n)
	}
	if code := serve(s, "POST", "/v1/tenants/big", "application/json", pad(maxCreateBody-2), -1); code != http.StatusCreated {
		t.Fatalf("chunked body at the limit: status %d, want 201", code)
	}
}

// TestRestoreBodyBound: a restore body over maxRestoreBody is refused
// with 413 and leaves the registry as it was. One whose Content-Length
// announces the excess is refused unread by the handler; a chunked one is
// cut off at the bound wherever it falls — mid-stream or in the checksum
// trailer — exercised with bounds below the snapshot's size (a chunked
// body past the real bound is 128 MiB).
func TestRestoreBodyBound(t *testing.T) {
	data := bench.SCLogData(4, 64, 1)
	s := New(Config{Workers: 1, DefaultInitialCols: 16})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/src", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/src/ingest", "text/csv", csvBody(t, data, 0, 32), http.StatusOK)
	snap := c.must("GET", "/v1/tenants/src/snapshot", "", nil, http.StatusOK)

	if code := serve(s, "PUT", "/v1/tenants/dst", "application/octet-stream", snap, maxRestoreBody+1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit Content-Length: status %d, want 413", code)
	}
	if n := c.tenantCount(); n != 1 {
		t.Fatalf("%d tenants registered after the 413, want 1", n)
	}
	c.must("GET", "/v1/tenants/dst/stats", "", nil, http.StatusNotFound)

	for _, limit := range []int64{int64(len(snap)) / 2, int64(len(snap)) - 1, int64(len(snap))} {
		req := httptest.NewRequest("PUT", "/v1/tenants/dst", bytes.NewReader(snap))
		req.ContentLength = -1
		_, err := decodeTenant(httptest.NewRecorder(), req, "dst", s.eng, limit)
		var he *httpError
		switch over := limit < int64(len(snap)); {
		case over && (!errors.As(err, &he) || he.code != http.StatusRequestEntityTooLarge):
			t.Fatalf("snapshot of %d bytes, bound %d: err %v, want 413", len(snap), limit, err)
		case !over && err != nil:
			t.Fatalf("snapshot of %d bytes, bound %d: %v", len(snap), limit, err)
		}
	}
	if code := serve(s, "PUT", "/v1/tenants/dst", "application/octet-stream", snap, -1); code != http.StatusCreated {
		t.Fatalf("chunked snapshot under the limit: status %d, want 201", code)
	}
}

// TestRestoreDirSkipsInvalidIDs: a snapshot file whose name is not a
// valid tenant id must be skipped at boot (it would register a zombie no
// request can address), reported in the returned error.
func TestRestoreDirSkipsInvalidIDs(t *testing.T) {
	data := bench.SCLogData(16, 320, 1)
	dir := t.TempDir()
	s := New(Config{Workers: 1, DefaultInitialCols: 256})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/good", "application/json", nil, http.StatusCreated)
	c.must("POST", "/v1/tenants/good/ingest", "text/csv", csvBody(t, data, 0, 320), http.StatusOK)
	if _, err := s.SnapshotAll(dir); err != nil {
		t.Fatal(err)
	}
	// A well-formed snapshot under an unaddressable file name.
	snap := c.must("GET", "/v1/tenants/good/snapshot", "", nil, http.StatusOK)
	if err := os.WriteFile(filepath.Join(dir, "bad name.imrdmd"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 1})
	ids, err := s2.RestoreDir(dir)
	if err == nil {
		t.Fatal("invalid-id snapshot not reported")
	}
	if len(ids) != 1 || ids[0] != "good" || s2.Tenants() != 1 {
		t.Fatalf("restored %v (%d tenants)", ids, s2.Tenants())
	}
}

// TestCreateInitialColsBound: a seed wider than maxInitialCols could not
// be restored even with one sensor, so asking for one is a 400 that
// registers nothing; a seed at the bound is accepted.
func TestCreateInitialColsBound(t *testing.T) {
	s := New(Config{Workers: 1, DefaultInitialCols: 16})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/wide", "application/json", []byte(fmt.Sprintf(`{"initial_cols":%d}`, maxInitialCols+1)), http.StatusBadRequest)
	if n := c.tenantCount(); n != 0 {
		t.Fatalf("%d tenants registered after the 400, want 0", n)
	}
	c.must("POST", "/v1/tenants/wide", "application/json", []byte(fmt.Sprintf(`{"initial_cols":%d}`, maxInitialCols)), http.StatusCreated)
}

// TestPreSeedPendingBound: before the seed, a batch that would take the
// pending buffer past the byte bound fails with 413 and is not absorbed;
// batches that stay within it are buffered, and the tenant still seeds.
func TestPreSeedPendingBound(t *testing.T) {
	data := bench.SCLogData(4, 64, 1)
	s := New(Config{Workers: 1, DefaultInitialCols: 48})
	c := newTestClient(t, s)
	c.must("POST", "/v1/tenants/buf", "application/json", nil, http.StatusCreated)
	tn, err := s.lookup("buf")
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4 * 24 * 8 // 24 columns of 4 sensors
	if _, _, _, err := tn.ingest([]*mat.Dense{data.ColSlice(0, 16)}, bound); err != nil {
		t.Fatal(err)
	}
	cols, done, _, err := tn.ingest([]*mat.Dense{data.ColSlice(16, 32)}, bound)
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch past the bound: err %v, want 413", err)
	}
	if cols != 0 || done != 0 || tn.feeder.Pending() != 16 {
		t.Fatalf("after the 413: absorbed %d columns in %d batches, pending %d; want 0, 0, 16", cols, done, tn.feeder.Pending())
	}
	if _, _, _, err := tn.ingest([]*mat.Dense{data.ColSlice(16, 24)}, bound); err != nil {
		t.Fatalf("batch reaching the bound exactly: %v", err)
	}
	if _, _, _, err := tn.ingest([]*mat.Dense{data.ColSlice(24, 48)}, maxRestoreBody); err != nil {
		t.Fatal(err)
	}
	if !tn.feeder.Seeded() || tn.inc.Cols() != 48 {
		t.Fatalf("seeded=%v cols=%d, want a 48-column seed", tn.feeder.Seeded(), tn.inc.Cols())
	}
}
