// SSE push surface: GET /v1/tenants/{id}/events streams one event per
// publish instead of being polled. Each subscriber owns a small buffered
// channel; the publisher never blocks on a slow consumer — when a buffer
// is full the OLDEST queued publish is dropped to admit the newest
// (drop-slowest backpressure), and the handler's per-connection delta
// tracking makes the coalescing transparent: an event's spectrum delta
// is always computed against the last version actually sent on that
// connection, so skipped intermediate publishes just widen the delta.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// subscriberBuffer is the per-subscriber channel depth. Small on
// purpose: a consumer that falls more than a few publishes behind wants
// the newest state, not a faithful replay of everything it missed.
const subscriberBuffer = 8

// subscriber is one SSE connection's mailbox.
type subscriber struct {
	ch chan *PublishedResult
	// dropped counts publishes evicted from this subscriber's buffer —
	// surfaced in events so a dashboard knows its view coalesced.
	dropped atomic.Uint64
}

// pubHub fans published results out to subscribers. The zero value is
// ready to use. All channel operations happen under mu and are
// non-blocking, so a publish costs the writer O(subscribers) regardless
// of how slowly any consumer drains.
type pubHub struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

func (h *pubHub) subscribe() *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	sub := &subscriber{ch: make(chan *PublishedResult, subscriberBuffer)}
	if h.closed {
		close(sub.ch) // subscriber sees an immediately-ended stream
		return sub
	}
	if h.subs == nil {
		h.subs = make(map[*subscriber]struct{})
	}
	h.subs[sub] = struct{}{}
	return sub
}

func (h *pubHub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		close(sub.ch)
	}
}

// broadcast enqueues p for every subscriber without ever blocking the
// publisher: a full buffer evicts its oldest entry (counted in
// sub.dropped) and retries. The eviction loop terminates because only
// the subscriber's handler receives concurrently — each iteration either
// frees a slot or finds one freed.
func (h *pubHub) broadcast(p *PublishedResult) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for sub := range h.subs {
		for {
			select {
			case sub.ch <- p:
			default:
				select {
				case <-sub.ch:
					sub.dropped.Add(1)
				default:
					// The handler drained the buffer between our two
					// selects; the retry will find room.
				}
				continue
			}
			break
		}
	}
}

// close ends every subscriber's stream; later subscribes end
// immediately. Used at tenant delete and server close so SSE handlers
// cannot hold graceful shutdown hostage.
func (h *pubHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for sub := range h.subs {
		close(sub.ch)
	}
	h.subs = nil
}

// subscribers returns the current subscriber count (stats surface).
func (h *pubHub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// pushEvent is the SSE `data:` payload of one publish. Spectrum changes
// ride as a delta against the Since version (the previous event on this
// connection, or the client's Last-Event-ID on resume); Reset marks a
// full-spectrum resync when no delta base was available.
type pushEvent struct {
	Version    uint64          `json:"version"`
	Since      uint64          `json:"since,omitempty"`
	Seeded     bool            `json:"seeded"`
	Steps      int             `json:"steps"`
	Pending    int             `json:"pending_columns"`
	Modes      int             `json:"modes"`
	Levels     int             `json:"levels"`
	Drift      float64         `json:"drift"`
	ReconError float64         `json:"recon_error"`
	Reset      bool            `json:"reset"`
	Spectrum   []SpectrumPoint `json:"spectrum,omitempty"`
	Added      []SpectrumPoint `json:"added,omitempty"`
	Removed    []SpectrumPoint `json:"removed,omitempty"`
	// Dropped is the cumulative count of publishes coalesced away for
	// this subscriber (drop-slowest backpressure); a rising value means
	// the consumer is not keeping up with the publish rate.
	Dropped uint64 `json:"dropped,omitempty"`
}

// handleEvents is GET /v1/tenants/{id}/events: an SSE stream with one
// `publish` event per published result. Events carry `id: <version>`, so
// a reconnecting client sends Last-Event-ID and resumes with a delta
// when its version is still in the history ring.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	t, err := s.lookupReq(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, fail(http.StatusInternalServerError, errors.New("response writer does not support streaming")))
		return
	}
	sub := t.hub.subscribe()
	defer t.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Delta base: the version this connection last saw. A resuming
	// client supplies it via Last-Event-ID; if that version is still in
	// the ring we diff against it, otherwise the first event is a reset.
	var last uint64
	var lastSpectrum []SpectrumPoint
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if v, perr := strconv.ParseUint(lei, 10, 64); perr == nil {
			if old := t.lookupPublished(v); old != nil {
				last, lastSpectrum = old.Version, old.View.Spectrum
			}
		}
	}
	// Emit the current state immediately: a fresh dashboard renders now
	// and only then waits for the next ingest.
	if pub := t.pub.Load(); pub != nil && pub.Version > last {
		if writeSSE(w, fl, pub, last, lastSpectrum, sub.dropped.Load()) != nil {
			return
		}
		last, lastSpectrum = pub.Version, pub.View.Spectrum
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case pub, open := <-sub.ch:
			if !open {
				return // tenant deleted or server closing
			}
			if pub.Version <= last {
				continue // already covered by a newer state we sent
			}
			if writeSSE(w, fl, pub, last, lastSpectrum, sub.dropped.Load()) != nil {
				return
			}
			last, lastSpectrum = pub.Version, pub.View.Spectrum
		}
	}
}

// writeSSE renders one publish as an SSE `publish` event, delta-encoded
// against the (sinceVersion, sinceSpectrum) base when one exists.
func writeSSE(w http.ResponseWriter, fl http.Flusher, pub *PublishedResult, sinceVersion uint64, sinceSpectrum []SpectrumPoint, dropped uint64) error {
	ev := pushEvent{
		Version:    pub.Version,
		Since:      sinceVersion,
		Seeded:     pub.Seeded,
		Steps:      pub.Status.Steps,
		Pending:    pub.Status.Pending,
		Modes:      pub.View.NumModes,
		Levels:     pub.View.MaxLevel,
		Drift:      pub.View.LastDrift,
		ReconError: pub.View.GridError,
		Dropped:    dropped,
	}
	if sinceVersion == 0 {
		ev.Reset = true
		ev.Spectrum = pub.View.Spectrum
	} else {
		ev.Added, ev.Removed = spectrumDelta(sinceSpectrum, pub.View.Spectrum)
	}
	if _, err := fmt.Fprintf(w, "event: publish\nid: %d\ndata: %s\n\n", pub.Version, mustJSON(ev)); err != nil {
		return err
	}
	fl.Flush()
	return nil
}
