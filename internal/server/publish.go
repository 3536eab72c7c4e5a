// Copy-on-write read path: after every absorbed ingest the tenant
// assembles one immutable PublishedResult — spectrum, counts, error,
// status, marshaled to JSON with strong ETags (small payloads at
// publish time, the large spectrum body once on first read) — and swaps
// it in through an atomic pointer. Query handlers load the pointer and
// write the frozen bytes: no tenant lock, no per-request marshaling, no
// allocation of result data. The single writer (ingest, serialized by
// the tenant mutex) is the only goroutine that builds results, so reads
// scale with cores while the expensive update path stays unperturbed.
//
// A short history ring of recent results (also behind an atomic pointer
// to an immutable slice) backs the `?since=<version>` delta form and the
// SSE resume path: a dashboard that already holds version v fetches only
// the spectrum points added/removed since v, or a full resync when v has
// aged out of the ring.
package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"

	"imrdmd/internal/core"
)

// pubHistoryLen bounds the retained published results per tenant. Deltas
// are only computable against versions still in the ring; older clients
// get a full resync. 16 covers a dashboard that polls at least once per
// 16 ingests — beyond that the full spectrum is cheaper than the
// accumulated delta anyway.
const pubHistoryLen = 16

// PublishedResult is one immutable read-side view of a tenant. Every
// field is frozen at publish time; handlers and SSE subscribers share
// instances freely across goroutines without synchronization.
type PublishedResult struct {
	// Version increases by one per publish (one publish per ingest
	// request, plus the creation/restore publish). Monotone per tenant.
	Version uint64
	// Seeded reports whether the analyzer has run InitialFit — the
	// pre-publish query gate, frozen into the result.
	Seeded bool

	// View is the analyzer summary the result was built from. Its
	// Spectrum (a fresh slice per core.View call, so nothing else holds
	// it) is the published mode set, retained un-marshaled for delta
	// computation (?since and SSE events diff two results).
	View core.View
	// Status is the stats summary frozen at publish time.
	Status TenantStatus

	// Response bodies and their strong ETags (quoted FNV-64a of the
	// body) are rendered lazily, once per published version, by the
	// first reader that needs each one. Ingest publishes a result per
	// absorbed request whether or not anyone is watching; rendering on
	// first read keeps every marshal off the ingest latency tail (the
	// tenant mutex is held across publish — see the lockio analyzer) and
	// skips it entirely for versions that age out of the ring unread.
	// sync.Once gives the same frozen-bytes guarantee handlers rely on.
	// The spectrum body is by far the largest payload (~70 KB at bench
	// scale); modes/error/status are small but ride the same path so the
	// critical section stays marshal-free.
	modesOnce  sync.Once
	modesJSON  []byte
	modesETag  string
	errorOnce  sync.Once
	errorJSON  []byte
	errorETag  string
	statusOnce sync.Once
	statusJSON []byte
	statusETag string

	spectrumOnce sync.Once
	spectrumJSON []byte
	spectrumETag string
}

// ModesBody returns the frozen GET /modes response body and its strong
// ETag, rendering them on first call. Safe for concurrent use.
func (p *PublishedResult) ModesBody() (body []byte, etag string) {
	p.modesOnce.Do(func() {
		p.modesJSON = mustJSON(modesPayload{Modes: p.View.NumModes, Levels: p.View.MaxLevel, Nodes: p.View.Nodes, Steps: p.View.Steps})
		p.modesETag = strongETag(p.modesJSON)
	})
	return p.modesJSON, p.modesETag
}

// ErrorBody returns the frozen GET /error response body and its strong
// ETag, rendering them on first call. Safe for concurrent use.
func (p *PublishedResult) ErrorBody() (body []byte, etag string) {
	p.errorOnce.Do(func() {
		p.errorJSON = mustJSON(errorPayload{ReconError: p.View.GridError, Steps: p.View.Steps, GridCols: p.View.GridCols, Drift: p.View.LastDrift})
		p.errorETag = strongETag(p.errorJSON)
	})
	return p.errorJSON, p.errorETag
}

// StatusBody returns the frozen GET /status response body and its
// strong ETag, rendering them on first call. Safe for concurrent use.
func (p *PublishedResult) StatusBody() (body []byte, etag string) {
	p.statusOnce.Do(func() {
		p.statusJSON = mustJSON(p.Status)
		p.statusETag = strongETag(p.statusJSON)
	})
	return p.statusJSON, p.statusETag
}

// SpectrumBody returns the frozen spectrum response body and its strong
// ETag, rendering them on first call. Safe for concurrent use.
func (p *PublishedResult) SpectrumBody() (body []byte, etag string) {
	p.spectrumOnce.Do(func() {
		p.spectrumJSON = appendSpectrumJSON(make([]byte, 0, 2+72*len(p.View.Spectrum)), p.View.Spectrum)
		p.spectrumETag = strongETag(p.spectrumJSON)
	})
	return p.spectrumJSON, p.spectrumETag
}

// modesPayload is the wire form of GET /modes.
type modesPayload struct {
	Modes  int `json:"modes"`
	Levels int `json:"levels"`
	Nodes  int `json:"nodes"`
	Steps  int `json:"steps"`
}

// errorPayload is the wire form of GET /error. ReconError is measured on
// the level-1 sample grid (every stride-th absorbed column, GridCols of
// them) — exact on the grid and O(grid) to publish, where the previous
// on-demand full-resolution error was O(all absorbed data) per request
// while holding the tenant lock.
type errorPayload struct {
	ReconError float64 `json:"recon_error"`
	Steps      int     `json:"steps"`
	GridCols   int     `json:"grid_cols"`
	Drift      float64 `json:"drift"`
}

// strongETag renders the quoted FNV-64a hash of a payload. Content-keyed
// (not version-keyed) on purpose: a publish that leaves a body unchanged
// (pre-seed ingests, a stats-only change while the spectrum holds still)
// keeps its ETag, so pollers keep getting 304s.
func strongETag(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// mustJSON marshals a value that cannot fail (structs of numbers and
// strings); a failure is a programming error worth crashing loudly for.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: publish marshal: %v", err))
	}
	return b
}

// appendSpectrumJSON renders the spectrum array directly with
// strconv.AppendFloat instead of encoding/json's reflective encoder —
// hundreds of points, five numbers each, rebuilt once per published
// version. Shortest-roundtrip formatting, so the bytes parse back to
// the identical float64s.
func appendSpectrumJSON(buf []byte, pts []SpectrumPoint) []byte {
	if len(pts) == 0 {
		return append(buf, '[', ']')
	}
	for i, p := range pts {
		if i == 0 {
			buf = append(buf, '[')
		} else {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"freq":`...)
		buf = appendJSONFloat(buf, p.Freq)
		buf = append(buf, `,"power":`...)
		buf = appendJSONFloat(buf, p.Power)
		buf = append(buf, `,"amp":`...)
		buf = appendJSONFloat(buf, p.Amp)
		buf = append(buf, `,"grow":`...)
		buf = appendJSONFloat(buf, p.Grow)
		buf = append(buf, `,"level":`...)
		buf = strconv.AppendInt(buf, int64(p.Level), 10)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

func appendJSONFloat(buf []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// encoding/json would error here; match mustJSON's posture.
		panic(fmt.Sprintf("server: publish marshal: non-finite spectrum value %v", f))
	}
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}

// newPublishedResult freezes a view + status pair into the immutable
// wire-ready form. The view is taken as is: core.View builds a fresh
// spectrum slice on every call, so the result owns it.
func newPublishedResult(version uint64, seeded bool, view core.View, st TenantStatus) *PublishedResult {
	return &PublishedResult{Version: version, Seeded: seeded, View: view, Status: st}
}

// spectrumDelta computes the multiset difference between two published
// spectra: added holds points in cur but not old, removed the reverse,
// both preserving publication order. Applying (old − removed + added)
// reproduces cur exactly — the contract the delta consumers (and the
// read-path tests) rely on. SpectrumPoint is a comparable value type, so
// equality is exact bitwise float comparison: a mode that moved at all
// appears as one removal plus one addition.
func spectrumDelta(old, cur []SpectrumPoint) (added, removed []SpectrumPoint) {
	counts := make(map[SpectrumPoint]int, len(old))
	for _, p := range old {
		counts[p]++
	}
	for _, p := range cur {
		if counts[p] > 0 {
			counts[p]--
		} else {
			added = append(added, p)
		}
	}
	for _, p := range old {
		if counts[p] > 0 {
			counts[p]--
			removed = append(removed, p)
		}
	}
	return added, removed
}

// spectrumDeltaResponse is the wire form of GET /spectrum?since=v. When
// Delta is true, Added/Removed transform the client's version-Since
// spectrum into version-Version; when false the Since version was not
// available for diffing (aged out of the ring, or the client is ahead of
// the server after a restore) and Spectrum carries the full resync.
type spectrumDeltaResponse struct {
	Version  uint64          `json:"version"`
	Since    uint64          `json:"since"`
	Delta    bool            `json:"delta"`
	Added    []SpectrumPoint `json:"added,omitempty"`
	Removed  []SpectrumPoint `json:"removed,omitempty"`
	Spectrum []SpectrumPoint `json:"spectrum,omitempty"`
}
