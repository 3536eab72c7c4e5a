// Package server is the streaming ingestion service around the I-mrDMD
// analyzer: a long-running HTTP server holding a registry of per-tenant
// incremental analyzers that many dashboards stream against concurrently.
// Each tenant picks its own analysis options while every tenant's kernels
// run on one bounded compute engine, so the process's concurrency is
// Workers-shaped no matter how many tenants register. Chunked CSV/JSON
// ingest feeds the stream plumbing (stream.Source → stream.Feeder), and
// the snapshot endpoints expose the internal/codec state serialization
// that lets a tenant survive process restarts or migrate between
// servers. See DESIGN.md §8 for the architecture and §9 for the read
// path.
//
// The query surface is lock-free: each ingest publishes an immutable
// PublishedResult (pre-marshaled JSON + strong ETags) through an atomic
// pointer, and the GET handlers below serve those frozen bytes without
// touching the tenant mutex. All published responses carry `ETag` and
// `X-Imrdmd-Version` headers and honor `If-None-Match` with 304;
// /spectrum additionally accepts `?since=<version>` for delta responses,
// and /events pushes every publish over SSE.
//
// Routes (all tenant state lives under /v1/tenants/{id}):
//
//	GET    /healthz                   liveness + tenant count
//	GET    /v1/tenants                tenant summaries
//	POST   /v1/tenants/{id}           create (JSON TenantOptions body; empty = defaults)
//	PUT    /v1/tenants/{id}           restore from a binary snapshot body
//	DELETE /v1/tenants/{id}           drop the tenant
//	POST   /v1/tenants/{id}/ingest    CSV (text/csv) or JSON batches (application/json)
//	GET    /v1/tenants/{id}/stats     TenantStatus (ingest latency, resident bytes)
//	GET    /v1/tenants/{id}/modes     retained mode/level counts
//	GET    /v1/tenants/{id}/spectrum  per-mode spectrum points (?since=<version> for deltas)
//	GET    /v1/tenants/{id}/error     grid reconstruction error + drift
//	GET    /v1/tenants/{id}/events    SSE stream, one event per publish
//	GET    /v1/tenants/{id}/snapshot  binary analyzer snapshot
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"imrdmd/internal/compute"
	"imrdmd/internal/dmd"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
)

// Config sizes a Server.
type Config struct {
	// Workers bounds the shared compute engine every tenant's kernels run
	// on (0 = GOMAXPROCS). This is the process's total kernel concurrency:
	// tenants contend for these lanes rather than multiplying them.
	Workers int
	// MaxTenants caps the registry; 0 means unlimited.
	MaxTenants int
	// DefaultInitialCols seeds tenants whose options leave InitialCols
	// unset; 0 defaults to 256.
	DefaultInitialCols int
}

// Server is the tenant registry plus its HTTP surface.
type Server struct {
	cfg Config
	eng *compute.Engine

	mu      sync.RWMutex
	tenants map[string]*tenant
}

// New builds a server with its shared engine.
func New(cfg Config) *Server {
	if cfg.DefaultInitialCols == 0 {
		cfg.DefaultInitialCols = 256
	}
	// compute.Shared reads a negative count as 0 (GOMAXPROCS lanes);
	// tenants take Workers from here and core.Options rejects negatives,
	// so normalize once to keep them on the server's pool.
	cfg.Workers = max(cfg.Workers, 0)
	return &Server{
		cfg:     cfg,
		eng:     compute.Shared(cfg.Workers),
		tenants: make(map[string]*tenant),
	}
}

// Handler returns the HTTP routing surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/tenants", s.handleList)
	mux.HandleFunc("POST /v1/tenants/{id}", s.handleCreate)
	mux.HandleFunc("PUT /v1/tenants/{id}", s.handleRestore)
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/tenants/{id}/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/tenants/{id}/stats", s.handleStats)
	mux.HandleFunc("GET /v1/tenants/{id}/modes", s.handleModes)
	mux.HandleFunc("GET /v1/tenants/{id}/spectrum", s.handleSpectrum)
	mux.HandleFunc("GET /v1/tenants/{id}/error", s.handleError)
	mux.HandleFunc("GET /v1/tenants/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/tenants/{id}/snapshot", s.handleSnapshot)
	return mux
}

// Close ends every tenant's SSE stream so in-flight /events handlers
// return and http.Server.Shutdown can complete. The tenants themselves
// stay registered and queryable; Close only severs push subscribers.
func (s *Server) Close() {
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	for _, t := range list {
		t.hub.close()
	}
}

// httpError is a handler failure with its status code.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }

func fail(code int, err error) *httpError { return &httpError{code: code, err: err} }

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// versionHeader carries the published-result version on every read-path
// response — the value a client hands back via ?since or Last-Event-ID.
const versionHeader = "X-Imrdmd-Version"

// etagMatch reports whether an If-None-Match header matches a strong
// ETag: `*` matches anything, otherwise any listed tag equal to ours
// (weak-validator prefixes stripped; our comparisons are byte-exact
// bodies, so W/ forms of our own tags still match).
func etagMatch(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || strings.TrimPrefix(cand, "W/") == etag {
			return true
		}
	}
	return false
}

// servePublished writes one pre-marshaled published body: sets ETag and
// version headers, answers If-None-Match with 304, otherwise streams the
// frozen bytes. No locks, no allocation of response data.
func servePublished(w http.ResponseWriter, r *http.Request, version uint64, etag string, body []byte) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set(versionHeader, strconv.FormatUint(version, 10))
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// tenantID validates the {id} path segment. Ids become file names under
// -state-dir (<id>.imrdmd), so the charset is restricted to names that
// cannot traverse or escape it: letters, digits, '.', '_' and '-', no
// separator characters (ServeMux unescapes %2F into the path value) and
// no dot-only segments.
func tenantID(r *http.Request) (string, error) {
	id := r.PathValue("id")
	if !validTenantID(id) {
		return "", fail(http.StatusBadRequest, fmt.Errorf("invalid tenant id %q (want 1-128 chars of [A-Za-z0-9._-], not dots only)", id))
	}
	return id, nil
}

func validTenantID(id string) bool {
	if id == "" || len(id) > 128 || strings.Trim(id, ".") == "" {
		return false
	}
	for _, c := range []byte(id) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// lookup fetches a registered tenant.
func (s *Server) lookup(id string) (*tenant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	if !ok {
		return nil, fail(http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
	}
	return t, nil
}

// register inserts a tenant, enforcing uniqueness and the registry cap.
func (s *Server) register(t *tenant) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[t.id]; ok {
		return fail(http.StatusConflict, fmt.Errorf("tenant %q already exists", t.id))
	}
	if s.cfg.MaxTenants > 0 && len(s.tenants) >= s.cfg.MaxTenants {
		return fail(http.StatusTooManyRequests, fmt.Errorf("tenant limit %d reached", s.cfg.MaxTenants))
	}
	s.tenants[t.id] = t
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.tenants)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "tenants": n, "workers": s.eng.Workers()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	out := make([]TenantStatus, len(list))
	for i, t := range list {
		out[i] = t.pub.Load().Status
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	id, err := tenantID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	opts, err := decodeOptions(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	t, err := newTenant(id, opts, s.cfg.Workers, s.cfg.DefaultInitialCols)
	if err != nil {
		writeErr(w, fail(http.StatusBadRequest, err))
		return
	}
	if err := s.register(t); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.pub.Load().Status)
}

// decodeOptions reads a create request's TenantOptions JSON, at most
// maxCreateBody bytes of it; an empty body means all defaults. A body
// over the limit fails with 413, a malformed one or an unknown field
// with 400.
func decodeOptions(w http.ResponseWriter, r *http.Request) (TenantOptions, error) {
	var opts TenantOptions
	body, err := limitBody(w, r, maxCreateBody, "options")
	if err != nil {
		return opts, err
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil && !errors.Is(err, io.EOF) {
		return opts, bodyErr(fmt.Errorf("invalid options body: %w", err), "options", maxCreateBody)
	}
	return opts, nil
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	id, err := tenantID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	t, err := decodeTenant(w, r, id, s.cfg.Workers, maxRestoreBody)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.register(t); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, t.pub.Load().Status)
}

// decodeTenant restores tenant id from a snapshot request body, at most
// limit bytes of it. A body over the limit fails with 413, any other bad
// snapshot with 400. The body is read unbuffered: the codec reads slices
// and matrices a 64 KiB chunk at a time, and buffering the remaining
// scalar fields measured no faster (DESIGN.md §8).
func decodeTenant(w http.ResponseWriter, r *http.Request, id string, workers int, limit int64) (*tenant, error) {
	body, err := limitBody(w, r, limit, "snapshot")
	if err != nil {
		return nil, err
	}
	t, err := restoreTenant(id, body, workers)
	if err != nil {
		return nil, bodyErr(fmt.Errorf("restore: %w", err), "snapshot", limit)
	}
	return t, nil
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id, err := tenantID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	t, ok := s.tenants[id]
	delete(s.tenants, id)
	s.mu.Unlock()
	if !ok {
		writeErr(w, fail(http.StatusNotFound, fmt.Errorf("unknown tenant %q", id)))
		return
	}
	t.hub.close() // end the tenant's SSE streams
	w.WriteHeader(http.StatusNoContent)
}

// Request body bounds (DESIGN.md §8). Each sits above the largest body
// of its kind any caller in this repository sends, so a single request
// cannot make the server buffer more than this:
//
//   - maxIngestBody: a Theta-scale CSV seed, P=4392 sensors × 1440
//     columns, is 114 MB.
//   - maxRestoreBody: a Theta-scale tenant's snapshot, P=4392 sensors,
//     is 36.8 MiB with its 720 seed columns and 85.9 MiB after streaming
//     to 1720 columns. It grows about 11.7 bytes per sensor per column
//     (8 of them raw history), so it reaches the bound near 2,580
//     columns; larger tenants move as -state-dir files.
//   - maxCreateBody: a TenantOptions object is a few hundred bytes.
//
// Two bounds keep the columns a tenant buffers before its seed inside
// what its own snapshot could restore. A snapshot holds at least 8 bytes
// of raw history per sensor per column, and every buffered column enters
// that history at the seed:
//
//   - maxInitialCols: a seed wider than maxRestoreBody/8 columns could not
//     be restored even with one sensor, so a create asking for one is a
//     400.
//   - maxRestoreBody also bounds the pending buffer itself: a pre-seed
//     batch that would take it past that many bytes is a 413 (see
//     tenant.ingest).
const (
	maxIngestBody  = 128 << 20
	maxRestoreBody = maxIngestBody
	maxCreateBody  = 1 << 20
	maxInitialCols = maxRestoreBody / 8
)

// limitBody caps the request body at limit bytes. A Content-Length over
// the limit fails with 413 before anything is read; a body without one
// fails on the read that runs over (see bodyErr).
func limitBody(w http.ResponseWriter, r *http.Request, limit int64, what string) (io.Reader, error) {
	if r.ContentLength > limit {
		return nil, fail(http.StatusRequestEntityTooLarge,
			fmt.Errorf("%s body of %d bytes is over the %d-byte limit", what, r.ContentLength, limit))
	}
	return http.MaxBytesReader(w, r.Body, limit), nil
}

// bodyErr classifies a failure to decode a limitBody reader: running over
// the limit is a 413, anything else a 400.
func bodyErr(err error, what string, limit int64) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fail(http.StatusRequestEntityTooLarge, fmt.Errorf("%s body is over the %d-byte limit", what, limit))
	}
	return fail(http.StatusBadRequest, err)
}

// bodySource adapts the request body, at most limit bytes of it, to a
// stream.Source (see decodeBody). A body over the limit fails with 413,
// any other malformed body with 400.
func bodySource(w http.ResponseWriter, r *http.Request, limit int64) (stream.Source, error) {
	body, err := limitBody(w, r, limit, "ingest")
	if err != nil {
		return nil, err
	}
	src, err := decodeBody(r.Header.Get("Content-Type"), body, r.ContentLength)
	if err != nil {
		return nil, bodyErr(err, "ingest", limit)
	}
	return src, nil
}

// decodeBody decodes an ingest body by content type: a JSON body is read
// into one buffer, sized from the Content-Length when the request has
// one (size >= 0) up to stream.FromJSON's 1 MiB preallocation cap, and
// scanned batch by batch; a CSV body parses to one matrix fed as a
// single batch.
func decodeBody(ct string, body io.Reader, size int64) (stream.Source, error) {
	switch {
	case strings.Contains(ct, "json"):
		if size >= 0 {
			body = sizedBody{body, int(size)}
		}
		return stream.FromJSON(body)
	case ct == "" || strings.Contains(ct, "csv") || strings.Contains(ct, "text/plain"):
		m, err := stream.ReadCSV(body)
		if err != nil {
			return nil, err
		}
		if m.C == 0 {
			return nil, errors.New("ingest body holds no columns")
		}
		return stream.FromMatrix(m, m.C), nil
	default:
		return nil, fmt.Errorf("unsupported Content-Type %q (want text/csv or application/json)", ct)
	}
}

// sizedBody is a request body with a known Content-Length, exposed as
// the Len method stream.FromJSON sizes its buffer by (it asks once,
// before reading).
type sizedBody struct {
	io.Reader
	n int
}

func (b sizedBody) Len() int { return b.n }

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id, err := tenantID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	t, err := s.lookup(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Decode the whole body into batches BEFORE touching tenant state:
	// malformed input (ragged rows, non-finite values, bad syntax) fails
	// here with nothing absorbed, and a slow client trickling its body
	// cannot sit on the tenant lock starving stats/snapshot/shutdown.
	src, err := bodySource(w, r, maxIngestBody)
	if err != nil {
		writeErr(w, err)
		return
	}
	var batches []*mat.Dense
	for {
		b, ok := src.Next()
		if !ok {
			break
		}
		batches = append(batches, b)
	}
	if err := stream.SourceErr(src); err != nil {
		writeErr(w, fail(http.StatusBadRequest, err))
		return
	}
	cols, done, pub, err := t.ingest(batches, maxRestoreBody)
	if err != nil {
		// An analyzer rejection mid-stream (e.g. a batch whose row count
		// disagrees with the fitted sensor dimension) is a client error,
		// but the earlier batches of this request ARE absorbed — report
		// how far the ingest got so the client retries only the remainder
		// instead of double-ingesting. A batch the pending buffer cannot
		// take is a 413.
		code := http.StatusBadRequest
		var he *httpError
		if errors.As(err, &he) {
			code = he.code
		}
		writeJSON(w, code, map[string]any{
			"error":            err.Error(),
			"columns_absorbed": cols,
			"batches_absorbed": done,
		})
		return
	}
	// The response reads the result THIS ingest published — no second
	// lock acquisition, and concurrent ingests can't skew the counts.
	writeJSON(w, http.StatusOK, map[string]any{
		"columns": cols,
		"batches": done,
		"seeded":  pub.Seeded,
		"pending": pub.Status.Pending,
		"steps":   pub.Status.Steps,
		"version": pub.Version,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, err := s.lookupReq(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	pub := t.pub.Load()
	body, etag := pub.StatusBody()
	servePublished(w, r, pub.Version, etag, body)
}

// seededPublished resolves the request tenant's current published result
// and requires a seeded one — the query endpoints have nothing to report
// before the seed. Entirely lock-free: tenant lookup is the registry
// RWMutex (not the tenant), and the seeded gate is the frozen flag in
// the published result itself.
func (s *Server) seededPublished(r *http.Request) (*tenant, *PublishedResult, error) {
	t, err := s.lookupReq(r)
	if err != nil {
		return nil, nil, err
	}
	pub := t.pub.Load()
	if !pub.Seeded {
		return nil, nil, fail(http.StatusConflict, fmt.Errorf("tenant %q has not seeded yet (%s)", t.id, "POST more columns first"))
	}
	return t, pub, nil
}

func (s *Server) lookupReq(r *http.Request) (*tenant, error) {
	id, err := tenantID(r)
	if err != nil {
		return nil, err
	}
	return s.lookup(id)
}

func (s *Server) handleModes(w http.ResponseWriter, r *http.Request) {
	_, pub, err := s.seededPublished(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	body, etag := pub.ModesBody()
	servePublished(w, r, pub.Version, etag, body)
}

// SpectrumPoint is the wire form of one retained mode. A comparable
// value type on purpose: spectrum deltas are multiset differences over
// these values.
type SpectrumPoint = dmd.SpectrumPoint

func (s *Server) handleSpectrum(w http.ResponseWriter, r *http.Request) {
	t, pub, err := s.seededPublished(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if sinceStr := r.URL.Query().Get("since"); sinceStr != "" {
		since, perr := strconv.ParseUint(sinceStr, 10, 64)
		if perr != nil {
			writeErr(w, fail(http.StatusBadRequest, fmt.Errorf("invalid since=%q: %v", sinceStr, perr)))
			return
		}
		s.serveSpectrumDelta(w, r, t, pub, since)
		return
	}
	body, etag := pub.SpectrumBody()
	servePublished(w, r, pub.Version, etag, body)
}

// serveSpectrumDelta answers GET /spectrum?since=v: 304 when v is the
// current version, an added/removed delta when v is still in the history
// ring, and a full-spectrum resync otherwise. The delta body depends on
// the client's v, so it is marshaled per request — but it is typically a
// handful of points, and the common no-change case is a bodyless 304.
func (s *Server) serveSpectrumDelta(w http.ResponseWriter, r *http.Request, t *tenant, pub *PublishedResult, since uint64) {
	w.Header().Set(versionHeader, strconv.FormatUint(pub.Version, 10))
	if since == pub.Version {
		_, etag := pub.SpectrumBody()
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	resp := spectrumDeltaResponse{Version: pub.Version, Since: since}
	if old := t.lookupPublished(since); old != nil && since < pub.Version {
		resp.Delta = true
		resp.Added, resp.Removed = spectrumDelta(old.View.Spectrum, pub.View.Spectrum)
	} else {
		// Aged out of the ring (or a bogus future version): full resync.
		resp.Spectrum = pub.View.Spectrum
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleError(w http.ResponseWriter, r *http.Request) {
	_, pub, err := s.seededPublished(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	body, etag := pub.ErrorBody()
	servePublished(w, r, pub.Version, etag, body)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, err := s.lookupReq(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	snap, err := t.snapshot()
	if err != nil {
		if errors.Is(err, errSnapshotUnseeded) {
			writeErr(w, fail(http.StatusConflict, err))
			return
		}
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", t.id+snapshotExt))
	w.Write(snap)
}

// snapshotExt names on-disk snapshot files.
const snapshotExt = ".imrdmd"

// SnapshotAll writes every seeded tenant's snapshot into dir as
// <id>.imrdmd — the graceful-shutdown path of cmd/imrdmd-serve. Unseeded
// tenants are skipped (they have no incremental state). Each file is
// written to a temp name and renamed into place only when complete, so
// an interrupted shutdown (crash, disk full, kill mid-write) can never
// clobber the previous good snapshot with a truncated one. Returns the
// number of snapshots written.
func (s *Server) SnapshotAll(dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	s.mu.RLock()
	list := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		list = append(list, t)
	}
	s.mu.RUnlock()
	n := 0
	for _, t := range list {
		snap, err := t.snapshot()
		if errors.Is(err, errSnapshotUnseeded) {
			continue
		}
		if err != nil {
			return n, fmt.Errorf("snapshot tenant %q: %w", t.id, err)
		}
		final := filepath.Join(dir, t.id+snapshotExt)
		tmp := final + ".tmp"
		if err := os.WriteFile(tmp, snap, 0o644); err != nil {
			os.Remove(tmp)
			return n, fmt.Errorf("snapshot tenant %q: %w", t.id, err)
		}
		if err := os.Rename(tmp, final); err != nil {
			os.Remove(tmp)
			return n, fmt.Errorf("snapshot tenant %q: %w", t.id, err)
		}
		n++
	}
	return n, nil
}

// RestoreDir loads every <id>.imrdmd snapshot in dir into the registry —
// the boot path of cmd/imrdmd-serve. A file that fails to restore
// (truncated, corrupt, wrong version) does NOT abort the boot: the
// remaining tenants still come up, and the failures are reported in the
// returned (joined) error alongside the successfully restored ids. Only
// a missing directory is a clean no-op.
func (s *Server) RestoreDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []string
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapshotExt) {
			continue
		}
		id := strings.TrimSuffix(name, snapshotExt)
		if !validTenantID(id) {
			// An id the HTTP surface would reject would register a zombie
			// tenant no request can ever address, query or delete.
			errs = append(errs, fmt.Errorf("tenant %q: invalid id for a snapshot file", id))
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("tenant %q: %w", id, err))
			continue
		}
		// The codec moves bulk fields 64 KiB at a time but reads scalar
		// fields one by one; the buffer turns those into memory copies
		// instead of a system call each.
		t, err := restoreTenant(id, bufio.NewReader(f), s.cfg.Workers)
		f.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("tenant %q: %w", id, err))
			continue
		}
		if err := s.register(t); err != nil {
			errs = append(errs, err)
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, errors.Join(errs...)
}

// Tenants returns the registered tenant count.
func (s *Server) Tenants() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tenants)
}
