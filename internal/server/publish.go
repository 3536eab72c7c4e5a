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
	"hash/crc32"
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

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

	// Response bodies and their strong ETags (see strongETag) are
	// rendered lazily, once per published version, by the
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
	// frags holds the tenant's fragment dictionary of its last spectrum
	// render (empty: render from scratch). The spectrum render copies the
	// JSON of every point it finds there and stores its own dictionary
	// in its place, so a version formats only the points that are new
	// since the last render: the level-1 modes and the newest segment's.
	frags *atomic.Pointer[spectrumFrags]
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
// ETag, rendering them on first call. Safe for concurrent use: two
// versions rendering at once each read a complete dictionary and store
// their own, and either one serves the next render.
func (p *PublishedResult) SpectrumBody() (body []byte, etag string) {
	p.spectrumOnce.Do(func() {
		var next *spectrumFrags
		p.spectrumJSON, next = p.frags.Load().render(p.View.Spectrum)
		p.spectrumETag = strongETag(p.spectrumJSON)
		p.frags.Store(next)
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

// strongETag renders a quoted 64-bit tag of a payload: its CRC-32C in
// the high half and its CRC-32 (IEEE) in the low half. crc32 runs both
// on the CPU's CRC instructions where it has them: they tag a 64 KB
// body in 7.6 µs where byte-wise FNV-64a took 102 µs (2-vCPU AVX-512
// Xeon). MakeTable returns crc32's own table, built on first use.
// Content-keyed (not version-keyed) on purpose: a publish that leaves a
// body unchanged (pre-seed ingests, a stats-only change while the
// spectrum holds still) keeps its ETag, so pollers keep getting 304s.
func strongETag(body []byte) string {
	tag := uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(body))
	return `"` + strconv.FormatUint(tag, 16) + `"`
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

// spectrumFrags is one spectrum render's fragment dictionary. For each
// point of that render it maps the bit patterns of (freq, power, amp,
// grow) to the byte range of the point's `{"freq":…,"grow":…,"level":`
// prefix in the render's frozen body. Keys are bit patterns, not float
// values, so a -0 fragment is never served for +0. The index is an
// open-addressed table, at most half full, of positions in frags: with
// a Go map in its place the sclog_stream benchmark's raw read p50 was
// 13% higher (0.457 → 0.517 ms, worse in 10 of 10 alternating pairs).
// Immutable once stored; a nil dictionary holds nothing.
type spectrumFrags struct {
	body  []byte
	frags []frag   // one per distinct key, in render order
	slots []uint32 // 1 + index into frags, 0 when empty; power-of-two length
	shift uint     // 64 − log2(len(slots)): the hash's top bits pick the slot
}

type frag struct {
	key    [4]uint64
	lo, hi int
}

// render writes the spectrum array as JSON with strconv.AppendFloat
// instead of encoding/json's reflective encoder: shortest-roundtrip
// floats, so the bytes parse back to the identical float64s. A point
// whose four floats appear in f keeps its prefix bytes from f's body;
// between two versions only the level-1 modes and the new segment's
// points miss, since every older point keeps its floats bit for bit and
// only its level moves. The bytes are the same whatever f holds. render
// returns the body and its own dictionary.
func (f *spectrumFrags) render(pts []SpectrumPoint) ([]byte, *spectrumFrags) {
	if len(pts) == 0 {
		return []byte("[]"), nil
	}
	lg := bits.Len(uint(2 * len(pts)))
	next := &spectrumFrags{frags: make([]frag, 0, len(pts)), slots: make([]uint32, 1<<lg), shift: 64 - uint(lg)}
	buf := make([]byte, 0, 2+72*len(pts))
	for i, p := range pts {
		if i == 0 {
			buf = append(buf, '[')
		} else {
			buf = append(buf, ',')
		}
		key := [4]uint64{math.Float64bits(p.Freq), math.Float64bits(p.Power), math.Float64bits(p.Amp), math.Float64bits(p.Grow)}
		h := fragHash(key)
		lo := len(buf)
		if fr := f.lookup(key, h); fr != nil {
			buf = append(buf, f.body[fr.lo:fr.hi]...)
		} else {
			buf = append(buf, `{"freq":`...)
			buf = appendJSONFloat(buf, p.Freq)
			buf = append(buf, `,"power":`...)
			buf = appendJSONFloat(buf, p.Power)
			buf = append(buf, `,"amp":`...)
			buf = appendJSONFloat(buf, p.Amp)
			buf = append(buf, `,"grow":`...)
			buf = appendJSONFloat(buf, p.Grow)
			buf = append(buf, `,"level":`...)
		}
		if s := next.slot(key, h); *s == 0 {
			next.frags = append(next.frags, frag{key, lo, len(buf)})
			*s = uint32(len(next.frags))
		}
		buf = strconv.AppendInt(buf, int64(p.Level), 10)
		buf = append(buf, '}')
	}
	buf = append(buf, ']')
	next.body = buf
	return buf, next
}

// fragHash mixes a key's four words by multiply-xor; its top bits pick
// a slot. Collisions cost a probe, never a wrong fragment: slot compares
// whole keys.
func fragHash(k [4]uint64) uint64 {
	const m = 0x9e3779b97f4a7c15
	return (((k[0]*m^k[1])*m^k[2])*m ^ k[3]) * m
}

// slot returns the slot that holds key, or the empty slot where it goes.
// The table is never more than half full, so the probe ends.
func (f *spectrumFrags) slot(key [4]uint64, h uint64) *uint32 {
	mask := uint64(len(f.slots) - 1)
	for i := h >> f.shift; ; i = (i + 1) & mask {
		if s := &f.slots[i]; *s == 0 || f.frags[*s-1].key == key {
			return s
		}
	}
}

// lookup returns key's fragment, or nil when f does not hold it.
func (f *spectrumFrags) lookup(key [4]uint64, h uint64) *frag {
	if f == nil {
		return nil
	}
	if s := *f.slot(key, h); s != 0 {
		return &f.frags[s-1]
	}
	return nil
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
// spectrum slice on every call, so the result owns it. frags is the
// tenant's spectrum fragment dictionary (see PublishedResult.frags).
func newPublishedResult(version uint64, seeded bool, view core.View, st TenantStatus, frags *atomic.Pointer[spectrumFrags]) *PublishedResult {
	return &PublishedResult{Version: version, Seeded: seeded, View: view, Status: st, frags: frags}
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
