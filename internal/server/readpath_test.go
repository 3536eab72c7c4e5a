package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imrdmd/internal/bench"
)

// get issues a GET with optional extra headers and returns the full
// response (headers included) plus the drained body.
func (c *testClient) get(path string, hdr map[string]string) (*http.Response, []byte) {
	c.t.Helper()
	req, err := http.NewRequest("GET", c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, body
}

// respVersion parses the X-Imrdmd-Version header.
func respVersion(t *testing.T, resp *http.Response) uint64 {
	t.Helper()
	v, err := strconv.ParseUint(resp.Header.Get(versionHeader), 10, 64)
	if err != nil {
		t.Fatalf("bad %s header %q: %v", versionHeader, resp.Header.Get(versionHeader), err)
	}
	return v
}

// multiset folds spectrum points into their multiset form.
func multiset(pts []SpectrumPoint) map[SpectrumPoint]int {
	m := make(map[SpectrumPoint]int, len(pts))
	for _, p := range pts {
		m[p]++
	}
	return m
}

// applyDelta applies (−removed, +added) to a multiset in place,
// reporting an error when a removal names a point the set doesn't hold —
// the delta contract violation torn reads would produce.
func applyDelta(set map[SpectrumPoint]int, added, removed []SpectrumPoint) error {
	for _, p := range removed {
		if set[p] == 0 {
			return fmt.Errorf("delta removes %+v which the base set does not hold", p)
		}
		set[p]--
		if set[p] == 0 {
			delete(set, p)
		}
	}
	for _, p := range added {
		set[p]++
	}
	return nil
}

func multisetsEqual(a, b map[SpectrumPoint]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestSpectrumDeltaMultiset pins the delta contract on the pure
// function: old − removed + added == cur exactly, including duplicates.
func TestSpectrumDeltaMultiset(t *testing.T) {
	pt := func(f float64) SpectrumPoint { return SpectrumPoint{Freq: f, Power: f * 2, Level: 1} }
	old := []SpectrumPoint{pt(1), pt(2), pt(2), pt(3)}
	cur := []SpectrumPoint{pt(2), pt(4), pt(4), pt(3), pt(5)}
	added, removed := spectrumDelta(old, cur)
	set := multiset(old)
	if err := applyDelta(set, added, removed); err != nil {
		t.Fatal(err)
	}
	if !multisetsEqual(set, multiset(cur)) {
		t.Fatalf("applying delta (added=%d removed=%d) did not reproduce cur", len(added), len(removed))
	}
	// No-op delta on identical spectra.
	added, removed = spectrumDelta(cur, cur)
	if len(added) != 0 || len(removed) != 0 {
		t.Fatalf("identical spectra produced delta +%d/-%d", len(added), len(removed))
	}
}

// TestAppendSpectrumJSON pins the direct spectrum render against the
// reflective encoder: the bytes must parse back to the identical
// points (shortest-roundtrip floats), including exponent-form values
// and the empty spectrum.
func TestAppendSpectrumJSON(t *testing.T) {
	pts := []SpectrumPoint{
		{Freq: 0.000123456789, Power: 1e21, Amp: -42.5, Grow: 1.0 / 3.0, Level: 3},
		{Freq: 2e-9, Power: 0, Amp: 123456789012345, Grow: -1e-300, Level: 1},
		{},
	}
	var got []SpectrumPoint
	if err := json.Unmarshal(renderFull(pts), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("%d points round-tripped, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d: %+v round-tripped to %+v", i, pts[i], got[i])
		}
	}
	if string(renderFull(nil)) != "[]" {
		t.Fatalf("empty spectrum rendered %q", renderFull(nil))
	}
}

// renderFull renders a spectrum with no fragments to reuse.
func renderFull(pts []SpectrumPoint) []byte {
	body, _ := (*spectrumFrags)(nil).render(pts)
	return body
}

// TestHubDropSlowest pins the backpressure contract: a subscriber that
// never drains loses the OLDEST queued publishes, keeps the newest, and
// sees the drops counted; unsubscribe and close end the stream.
func TestHubDropSlowest(t *testing.T) {
	var h pubHub
	sub := h.subscribe()
	const extra = 5
	for v := uint64(1); v <= subscriberBuffer+extra; v++ {
		h.broadcast(&PublishedResult{Version: v})
	}
	if got := sub.dropped.Load(); got != extra {
		t.Fatalf("dropped %d want %d", got, extra)
	}
	for want := uint64(extra + 1); want <= subscriberBuffer+extra; want++ {
		p := <-sub.ch
		if p.Version != want {
			t.Fatalf("drained version %d want %d", p.Version, want)
		}
	}
	select {
	case p := <-sub.ch:
		t.Fatalf("unexpected extra publish v%d", p.Version)
	default:
	}
	h.unsubscribe(sub)
	if _, open := <-sub.ch; open {
		t.Fatal("channel still open after unsubscribe")
	}
	h.close()
	if sub2 := h.subscribe(); func() bool { _, open := <-sub2.ch; return open }() {
		t.Fatal("subscribe on a closed hub returned a live stream")
	}
	h.broadcast(&PublishedResult{Version: 99}) // must not panic after close
}

// TestReadPathETagAndSince walks the conditional-request surface over
// HTTP: strong ETags with If-None-Match 304s on every published
// endpoint, version headers that only move forward, and the three
// ?since forms (current → 304, in-ring → delta, aged-out → resync).
func TestReadPathETagAndSince(t *testing.T) {
	data := bench.SCLogData(16, 768, 1)
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"initial_cols":256}`)
	c.must("POST", "/v1/tenants/rp", "application/json", opts, http.StatusCreated)

	// Pre-seed: result endpoints refuse, stats serves the v1 publish.
	c.must("GET", "/v1/tenants/rp/spectrum", "", nil, http.StatusConflict)
	c.must("GET", "/v1/tenants/rp/modes", "", nil, http.StatusConflict)
	c.must("GET", "/v1/tenants/rp/error", "", nil, http.StatusConflict)
	resp, _ := c.get("/v1/tenants/rp/stats", nil)
	if v := respVersion(t, resp); v != 1 {
		t.Fatalf("creation publish version %d want 1", v)
	}
	statsTag := resp.Header.Get("ETag")
	if statsTag == "" {
		t.Fatal("stats response has no ETag")
	}
	// A pre-seed ingest republishes, but the stats BODY changes (ingest
	// counters), so no 304; the spectrum is what holds still pre-seed.
	c.must("POST", "/v1/tenants/rp/ingest", "text/csv", csvBody(t, data, 0, 128), http.StatusOK)
	resp, _ = c.get("/v1/tenants/rp/stats", map[string]string{"If-None-Match": statsTag})
	if resp.StatusCode != http.StatusOK || respVersion(t, resp) != 2 {
		t.Fatalf("stats after pre-seed ingest: %d v%s", resp.StatusCode, resp.Header.Get(versionHeader))
	}

	// Seed, then exercise 304s on every result endpoint.
	c.must("POST", "/v1/tenants/rp/ingest", "text/csv", csvBody(t, data, 128, 256), http.StatusOK)
	var baseSpec []SpectrumPoint
	resp, body := c.get("/v1/tenants/rp/spectrum", nil)
	if err := json.Unmarshal(body, &baseSpec); err != nil {
		t.Fatal(err)
	}
	baseVer := respVersion(t, resp)
	if baseVer != 3 {
		t.Fatalf("post-seed version %d want 3", baseVer)
	}
	for _, ep := range []string{"spectrum", "modes", "error", "stats"} {
		first, _ := c.get("/v1/tenants/rp/"+ep, nil)
		tag := first.Header.Get("ETag")
		if tag == "" || !strings.HasPrefix(tag, `"`) {
			t.Fatalf("%s: want strong quoted ETag, got %q", ep, tag)
		}
		again, body := c.get("/v1/tenants/rp/"+ep, map[string]string{"If-None-Match": tag})
		if again.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("%s: conditional GET returned %d with %d body bytes", ep, again.StatusCode, len(body))
		}
		if again.Header.Get("ETag") != tag || respVersion(t, again) != baseVer {
			t.Fatalf("%s: 304 lost headers", ep)
		}
		// A stale tag still gets the full body.
		miss, body := c.get("/v1/tenants/rp/"+ep, map[string]string{"If-None-Match": `"deadbeef"`})
		if miss.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: stale-tag GET returned %d", ep, miss.StatusCode)
		}
	}

	// ?since=current → bodyless 304.
	resp, body = c.get(fmt.Sprintf("/v1/tenants/rp/spectrum?since=%d", baseVer), nil)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("since=current: %d with %d bytes", resp.StatusCode, len(body))
	}

	// Ingest forward; ?since=baseVer must return a delta that transforms
	// the base spectrum into the current one exactly.
	c.must("POST", "/v1/tenants/rp/ingest", "text/csv", csvBody(t, data, 256, 384), http.StatusOK)
	var cur []SpectrumPoint
	resp, body = c.get("/v1/tenants/rp/spectrum", nil)
	if err := json.Unmarshal(body, &cur); err != nil {
		t.Fatal(err)
	}
	curVer := respVersion(t, resp)
	var delta spectrumDeltaResponse
	resp, body = c.get(fmt.Sprintf("/v1/tenants/rp/spectrum?since=%d", baseVer), nil)
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	if !delta.Delta || delta.Version != curVer || delta.Since != baseVer || delta.Spectrum != nil {
		t.Fatalf("delta response: %+v", delta)
	}
	set := multiset(baseSpec)
	if err := applyDelta(set, delta.Added, delta.Removed); err != nil {
		t.Fatal(err)
	}
	if !multisetsEqual(set, multiset(cur)) {
		t.Fatal("delta did not transform base spectrum into current")
	}

	// Age baseVer out of the ring (> pubHistoryLen publishes), then
	// ?since=baseVer must fall back to a full resync.
	for i := 0; i < pubHistoryLen+1; i++ {
		c.must("POST", "/v1/tenants/rp/ingest", "text/csv", csvBody(t, data, 384+i*16, 384+(i+1)*16), http.StatusOK)
	}
	resp, body = c.get(fmt.Sprintf("/v1/tenants/rp/spectrum?since=%d", baseVer), nil)
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	_, full := c.get("/v1/tenants/rp/spectrum", nil)
	var fullSpec []SpectrumPoint
	if err := json.Unmarshal(full, &fullSpec); err != nil {
		t.Fatal(err)
	}
	if delta.Delta || len(delta.Spectrum) == 0 || !multisetsEqual(multiset(delta.Spectrum), multiset(fullSpec)) {
		t.Fatalf("aged-out since should resync: delta=%v points=%d", delta.Delta, len(delta.Spectrum))
	}
	c.must("GET", "/v1/tenants/rp/spectrum?since=notanumber", "", nil, http.StatusBadRequest)
}

// sseEvent is one parsed SSE publish event.
type sseEvent struct {
	id   uint64
	data pushEvent
}

// sseReader incrementally parses `event:`/`id:`/`data:` frames off an
// open SSE response body.
type sseReader struct {
	br *bufio.Reader
}

func (r *sseReader) next() (sseEvent, error) {
	var ev sseEvent
	seen := false
	for {
		line, err := r.br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && seen:
			return ev, nil
		case strings.HasPrefix(line, "id: "):
			id, perr := strconv.ParseUint(line[len("id: "):], 10, 64)
			if perr != nil {
				return ev, perr
			}
			ev.id = id
			seen = true
		case strings.HasPrefix(line, "data: "):
			if perr := json.Unmarshal([]byte(line[len("data: "):]), &ev.data); perr != nil {
				return ev, perr
			}
			seen = true
		}
	}
}

// openSSE starts an /events stream and returns its reader plus a cancel
// that tears the connection down.
func openSSE(t *testing.T, c *testClient, path string, hdr map[string]string) (*sseReader, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", c.srv.URL+path, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		cancel()
		t.Fatalf("events: status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	return &sseReader{br: bufio.NewReader(resp.Body)}, func() { cancel(); resp.Body.Close() }
}

// TestEventsStream drives the SSE surface serially: the immediate
// current-state event, one delta event per publish, Last-Event-ID
// resume, and stream teardown on tenant delete.
func TestEventsStream(t *testing.T) {
	data := bench.SCLogData(16, 640, 1)
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"initial_cols":256}`)
	c.must("POST", "/v1/tenants/sse", "application/json", opts, http.StatusCreated)
	c.must("POST", "/v1/tenants/sse/ingest", "text/csv", csvBody(t, data, 0, 256), http.StatusOK)

	c.must("GET", "/v1/tenants/nope/events", "", nil, http.StatusNotFound)

	r, stop := openSSE(t, c, "/v1/tenants/sse/events", nil)
	defer stop()
	first, err := r.next()
	if err != nil {
		t.Fatal(err)
	}
	if !first.data.Reset || first.id != first.data.Version || !first.data.Seeded {
		t.Fatalf("first event: %+v", first)
	}
	state := multiset(first.data.Spectrum)
	_, full := c.get("/v1/tenants/sse/spectrum", nil)
	var spec []SpectrumPoint
	if err := json.Unmarshal(full, &spec); err != nil {
		t.Fatal(err)
	}
	if !multisetsEqual(state, multiset(spec)) {
		t.Fatal("initial SSE spectrum disagrees with GET /spectrum")
	}

	// Each ingest publishes one delta event against the previous one.
	prev := first.id
	for i := 0; i < 3; i++ {
		c.must("POST", "/v1/tenants/sse/ingest", "text/csv", csvBody(t, data, 256+i*64, 256+(i+1)*64), http.StatusOK)
		ev, err := r.next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.id <= prev || ev.data.Since != prev || ev.data.Reset {
			t.Fatalf("event %d: id=%d since=%d reset=%v (prev %d)", i, ev.id, ev.data.Since, ev.data.Reset, prev)
		}
		if err := applyDelta(state, ev.data.Added, ev.data.Removed); err != nil {
			t.Fatal(err)
		}
		prev = ev.id
	}
	_, full = c.get("/v1/tenants/sse/spectrum", nil)
	if err := json.Unmarshal(full, &spec); err != nil {
		t.Fatal(err)
	}
	if !multisetsEqual(state, multiset(spec)) {
		t.Fatal("delta-maintained SSE spectrum diverged from GET /spectrum")
	}

	// Resume with Last-Event-ID two versions back: the first event must
	// be a delta against that version, not a reset.
	r2, stop2 := openSSE(t, c, "/v1/tenants/sse/events", map[string]string{"Last-Event-ID": strconv.FormatUint(prev-1, 10)})
	defer stop2()
	ev, err := r2.next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.data.Reset || ev.data.Since != prev-1 || ev.id != prev {
		t.Fatalf("resume event: %+v", ev)
	}

	// Deleting the tenant ends both streams.
	c.must("DELETE", "/v1/tenants/sse", "", nil, http.StatusNoContent)
	deadline := time.After(5 * time.Second)
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := r.next(); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case <-deadline:
		t.Fatal("SSE stream did not end after tenant delete")
	case err := <-done:
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			t.Logf("stream ended with %v", err)
		}
	}
}

// TestReadPathConcurrentHammer is the PR's lock-free acceptance test,
// run under -race in CI: four reader goroutines hammer every published
// endpoint (with conditional requests and ?since polling) and one SSE
// subscriber follows the event stream, all while the writer streams
// PartialFit batches over HTTP. Asserts per-reader monotone versions,
// the delta contract under concurrency, cross-endpoint agreement at
// equal versions (no torn reads), and final convergence of every
// delta-maintained spectrum to the last published one.
func TestReadPathConcurrentHammer(t *testing.T) {
	const (
		p     = 16
		seed  = 256
		total = 768
		step  = 16
	)
	data := bench.SCLogData(p, total, 1)
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	opts := []byte(`{"dt":20,"max_levels":3,"max_cycles":2,"use_svht":true,"initial_cols":256}`)
	c.must("POST", "/v1/tenants/hammer", "application/json", opts, http.StatusCreated)
	c.must("POST", "/v1/tenants/hammer/ingest", "text/csv", csvBody(t, data, 0, seed), http.StatusOK)

	// modesAt records version → mode count observations from every
	// endpoint that reports both; two observations of the same version
	// must agree (a torn read would not).
	var obsMu sync.Mutex
	modesAt := map[uint64]int{}
	recordModes := func(version uint64, modes int) error {
		obsMu.Lock()
		defer obsMu.Unlock()
		if prev, ok := modesAt[version]; ok && prev != modes {
			return fmt.Errorf("version %d observed with %d and %d modes", version, prev, modes)
		}
		modesAt[version] = modes
		return nil
	}

	stop := make(chan struct{})
	errs := make(chan error, 16)
	var wg sync.WaitGroup

	// Readers: rotate endpoints, track monotone versions, maintain a
	// delta-synced spectrum via ?since, replay ETags as If-None-Match.
	base := "/v1/tenants/hammer"
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			var lastVer uint64
			var sinceVer uint64
			var etags [4]string
			eps := [4]string{"spectrum", "modes", "error", "stats"}
			state := map[SpectrumPoint]int{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ep := eps[i%4]
				hdr := map[string]string{}
				if tag := etags[i%4]; tag != "" && i%3 == 0 {
					hdr["If-None-Match"] = tag
				}
				path := base + "/" + ep
				if ep == "spectrum" && i%2 == 1 {
					path += "?since=" + strconv.FormatUint(sinceVer, 10)
					delete(hdr, "If-None-Match")
				}
				resp, body := c.get(path, hdr)
				ver := respVersion(t, resp)
				if ver < lastVer {
					errs <- fmt.Errorf("reader %d: version went backwards %d → %d on %s", reader, lastVer, ver, ep)
					return
				}
				lastVer = ver
				if resp.StatusCode == http.StatusNotModified {
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: %s returned %d (%s)", reader, path, resp.StatusCode, body)
					return
				}
				etags[i%4] = resp.Header.Get("ETag")
				switch ep {
				case "spectrum":
					if strings.Contains(path, "since") {
						var d spectrumDeltaResponse
						if err := json.Unmarshal(body, &d); err != nil {
							errs <- err
							return
						}
						if d.Delta {
							if err := applyDelta(state, d.Added, d.Removed); err != nil {
								errs <- fmt.Errorf("reader %d since=%d→%d: %w", reader, d.Since, d.Version, err)
								return
							}
						} else {
							state = multiset(d.Spectrum)
						}
						sinceVer = d.Version
					} else {
						var spec []SpectrumPoint
						if err := json.Unmarshal(body, &spec); err != nil {
							errs <- err
							return
						}
						if err := recordModes(ver, len(spec)); err != nil {
							errs <- err
							return
						}
					}
				case "modes":
					var mp modesPayload
					if err := json.Unmarshal(body, &mp); err != nil {
						errs <- err
						return
					}
					if err := recordModes(ver, mp.Modes); err != nil {
						errs <- err
						return
					}
				case "stats":
					var st TenantStatus
					if err := json.Unmarshal(body, &st); err != nil {
						errs <- err
						return
					}
					if st.Version != ver {
						errs <- fmt.Errorf("reader %d: stats body version %d vs header %d", reader, st.Version, ver)
						return
					}
				}
			}
		}(reader)
	}

	// SSE subscriber: follow the stream, maintain the delta spectrum,
	// assert strictly increasing ids. Coalescing (drop-slowest) is fine —
	// the per-connection delta base makes skipped publishes transparent.
	var sseLast atomic.Uint64
	var sseMu sync.Mutex
	sseState := map[SpectrumPoint]int{}
	r, stopSSE := openSSE(t, c, base+"/events", nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev uint64
		for {
			ev, err := r.next()
			if err != nil {
				return // connection canceled at test end
			}
			if ev.id <= prev {
				errs <- fmt.Errorf("sse: non-increasing id %d after %d", ev.id, prev)
				return
			}
			sseMu.Lock()
			if ev.data.Reset {
				sseState = multiset(ev.data.Spectrum)
			} else if err := applyDelta(sseState, ev.data.Added, ev.data.Removed); err != nil {
				sseMu.Unlock()
				errs <- fmt.Errorf("sse delta %d→%d: %w", ev.data.Since, ev.id, err)
				return
			}
			sseMu.Unlock()
			prev = ev.id
			sseLast.Store(ev.id)
		}
	}()

	// Writer: stream the rest of the data over HTTP while readers hammer.
	var finalVer uint64
	for x := seed; x < total; x += step {
		body := c.must("POST", base+"/ingest", "application/json", jsonBody(t, data, x, x+step), http.StatusOK)
		var ing struct {
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(body, &ing); err != nil {
			t.Fatal(err)
		}
		if ing.Version <= finalVer {
			t.Fatalf("ingest version not monotone: %d after %d", ing.Version, finalVer)
		}
		finalVer = ing.Version
	}

	// Wait for the SSE subscriber to converge on the final publish, then
	// stop everyone.
	waitUntil := time.Now().Add(5 * time.Second)
	for sseLast.Load() < finalVer && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	stopSSE()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Final convergence: the SSE-maintained spectrum must equal the last
	// published one exactly.
	if got := sseLast.Load(); got != finalVer {
		t.Fatalf("sse subscriber stalled at version %d, final is %d", got, finalVer)
	}
	resp, full := c.get(base+"/spectrum", nil)
	if respVersion(t, resp) != finalVer {
		t.Fatalf("final spectrum version %d want %d", respVersion(t, resp), finalVer)
	}
	var spec []SpectrumPoint
	if err := json.Unmarshal(full, &spec); err != nil {
		t.Fatal(err)
	}
	sseMu.Lock()
	defer sseMu.Unlock()
	if !multisetsEqual(sseState, multiset(spec)) {
		t.Fatal("sse delta-maintained spectrum diverged from the final published spectrum")
	}
}
