package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"imrdmd/internal/server"
)

// service is the system under test for the served workloads: the
// in-process server behind a real loopback TCP listener.
type service struct {
	srv *server.Server
	ts  *httptest.Server
}

// startService starts a server whose engine has GOMAXPROCS lanes
// (Workers 0). In a traced run the handler is wrapped so that requests
// from traced rounds get handler spans.
func startService(tr *tracer) *service {
	srv := server.New(server.Config{})
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	return &service{srv: srv, ts: httptest.NewServer(h)}
}

func (s *service) close() {
	s.srv.Close()
	s.ts.Close()
}

// conn is one client connection: a transport limited to a single TCP
// connection, so a workload's connection count is the number of conns it
// opens.
type conn struct {
	base string
	hc   *http.Client
	last time.Time // when the previous request on this conn completed
}

func (s *service) dial() *conn {
	return &conn{
		base: s.ts.URL,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status     int
	etag       string
	version    uint64
	body       []byte
	sent, done time.Time
	gap        time.Duration // idle time on this conn before sent
}

func (rep reply) dur() time.Duration { return rep.done.Sub(rep.sent) }

// do sends one request and reads the whole response. With a tracer it
// records a "client.<kind>" span and tags the request so the server
// middleware records the handler span below it.
func (c *conn) do(tr *tracer, kind, method, path, ctype string, body []byte, hdr map[string]string) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	id := tr.newID()
	if tr != nil {
		req.Header.Set(opHeader, fmt.Sprintf("%d %s", id, kind))
	}
	rep := reply{sent: time.Now()}
	if !c.last.IsZero() {
		rep.gap = rep.sent.Sub(c.last)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return rep, fmt.Errorf("%s %s: %w", method, path, err)
	}
	rep.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.done = time.Now()
	c.last = rep.done
	if err != nil {
		return rep, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	rep.status = resp.StatusCode
	rep.etag = resp.Header.Get("ETag")
	if v := resp.Header.Get("X-Imrdmd-Version"); v != "" {
		rep.version, _ = strconv.ParseUint(v, 10, 64) // the server writes decimal
	}
	tr.add(span{Name: "client." + kind, ID: id, Op: id, Status: rep.status, Bytes: int64(len(rep.body))}, rep.sent, rep.done)
	return rep, nil
}

// expect turns a transport error or an unexpected status into an error.
func expect(rep reply, err error, want ...int) error {
	if err != nil {
		return err
	}
	for _, w := range want {
		if rep.status == w {
			return nil
		}
	}
	return fmt.Errorf("status %d (want %v): %.200s", rep.status, want, rep.body)
}

// Content types of the two ingest encodings.
const (
	ctJSON = "application/json"
	ctCSV  = "text/csv"
)

func tenantPath(id string) string { return "/v1/tenants/" + id }

// setupTenant creates a tenant and seeds it over CSV, timing both as the
// round's set-up.
func (r *run) setupTenant(c *conn, tr *tracer, id string, opts server.TenantOptions, seedCSV []byte) error {
	body, err := json.Marshal(opts)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := c.do(tr, "create", http.MethodPost, tenantPath(id), ctJSON, body, nil)
	if err := r.op(expect(rep, err, http.StatusCreated)); err != nil {
		return err
	}
	rep, err = c.do(tr, "seed", http.MethodPost, tenantPath(id)+"/ingest", ctCSV, seedCSV, nil)
	if err := r.op(expect(rep, err, http.StatusOK)); err != nil {
		return err
	}
	r.addSetup(time.Since(start))
	return nil
}

// ingestReply is the part of an ingest response the checks read.
type ingestReply struct {
	Steps   int  `json:"steps"`
	Seeded  bool `json:"seeded"`
	Columns int  `json:"columns"`
}

// ingest posts one JSON body of batchCols columns and returns the steps
// the tenant reports afterwards. In a closed loop (zero due) the latency
// is the round trip and the lateness the idle gap before the send; in an
// open loop both are timed from the batch's due time.
func (r *run) ingest(c *conn, tr *tracer, id string, body []byte, due time.Time) (int, error) {
	rep, err := c.do(tr, "ingest", http.MethodPost, tenantPath(id)+"/ingest", ctJSON, body, nil)
	if err := r.op(expect(rep, err, http.StatusOK)); err != nil {
		return 0, err
	}
	var ir ingestReply
	if err := r.op(json.Unmarshal(rep.body, &ir)); err != nil {
		return 0, err
	}
	lat, late := rep.dur(), rep.gap
	if !due.IsZero() {
		lat, late = rep.done.Sub(due), rep.sent.Sub(due)
	}
	r.addIngest(tr, lat, rep.dur())
	r.late = append(r.late, late)
	return ir.Steps, nil
}

// get fetches one read path of a tenant, counting it as a read.
func (r *run) get(c *conn, tr *tracer, id, path string, hdr map[string]string) (reply, error) {
	rep, err := c.do(tr, "read", http.MethodGet, tenantPath(id)+path, "", nil, hdr)
	if err := r.op(expect(rep, err, http.StatusOK, http.StatusNotModified)); err != nil {
		return rep, err
	}
	r.addRead(rep.dur())
	return rep, nil
}

// fetch is a request that is neither timed nor counted as a read: the
// bench's own look at state for its checks.
func (r *run) fetch(c *conn, method, path string, want int) ([]byte, error) {
	rep, err := c.do(nil, "", method, path, "", nil, nil)
	if err := r.op(expect(rep, err, want)); err != nil {
		return nil, err
	}
	return rep.body, nil
}

// tenantStats is the part of GET /stats the checks read.
type tenantStats struct {
	Steps         int   `json:"steps"`
	ResidentBytes int64 `json:"resident_bytes"`
	RawColdCols   int   `json:"raw_cold_cols"`
}

func (r *run) stats(c *conn, id string) (tenantStats, error) {
	var st tenantStats
	body, err := r.fetch(c, http.MethodGet, tenantPath(id)+"/stats", http.StatusOK)
	if err != nil {
		return st, err
	}
	return st, r.op(json.Unmarshal(body, &st))
}

// restoreCycles snapshots tenant id and restores it under new ids n
// times, timing each PUT. Each restored tenant must serve the source's
// spectrum byte for byte; it is deleted after the comparison. Returns the
// snapshot bytes.
func (r *run) restoreCycles(c *conn, tr *tracer, id string, n int) ([]byte, error) {
	snap, err := r.fetch(c, http.MethodGet, tenantPath(id)+"/snapshot", http.StatusOK)
	if err != nil {
		return nil, err
	}
	want, err := r.fetch(c, http.MethodGet, tenantPath(id)+"/spectrum", http.StatusOK)
	if err != nil {
		return nil, err
	}
	for k := 0; k < n; k++ {
		rid := fmt.Sprintf("%s-r%d", id, k)
		runtime.GC() // keep collecting the round's earlier garbage off the restore's clock
		rep, err := c.do(tr, "restore", http.MethodPut, tenantPath(rid), "application/octet-stream", snap, nil)
		if err := r.op(expect(rep, err, http.StatusCreated)); err != nil {
			return nil, err
		}
		r.addRestore(rep.dur())
		got, err := r.fetch(c, http.MethodGet, tenantPath(rid)+"/spectrum", http.StatusOK)
		if err != nil {
			return nil, err
		}
		got = tamper(r, "restore", got, flipByte)
		if err := r.check("restore", sameBytes(got, want)); err != nil {
			return nil, err
		}
		if _, err := r.fetch(c, http.MethodDelete, tenantPath(rid), http.StatusNoContent); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("restored spectrum differs from the source (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}

// flipByte is the wrong result the "restore" check must reject.
func flipByte(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) > 1 {
		out[1] ^= 1
	}
	return out
}
