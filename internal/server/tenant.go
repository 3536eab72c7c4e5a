package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"imrdmd/internal/core"
	"imrdmd/internal/mat"
	"imrdmd/internal/stream"
)

// TenantOptions is the JSON configuration a tenant is created with — the
// per-tenant knobs of core.Options plus the seed width. Workers is
// deliberately absent: every tenant runs with the server's
// Config.Workers, so all tenants share one bounded engine, which is what
// keeps N tenants from spawning N worker pools.
type TenantOptions struct {
	DT             float64 `json:"dt,omitempty"`
	MaxLevels      int     `json:"max_levels,omitempty"`
	MaxCycles      int     `json:"max_cycles,omitempty"`
	NyquistFactor  int     `json:"nyquist_factor,omitempty"`
	Rank           int     `json:"rank,omitempty"`
	UseSVHT        bool    `json:"use_svht,omitempty"`
	MinWindow      int     `json:"min_window,omitempty"`
	Parallel       bool    `json:"parallel,omitempty"`
	BlockColumns   int     `json:"block_columns,omitempty"`
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// DriftWindow / AmplitudeWindow / ColdHorizon are the flat-horizon
	// knobs (PR 9): bounded drift measurement, bounded amplitude refit,
	// and f32 demotion of raw history older than the horizon.
	DriftWindow     int `json:"drift_window,omitempty"`
	AmplitudeWindow int `json:"amplitude_window,omitempty"`
	ColdHorizon     int `json:"cold_horizon,omitempty"`
	// InitialCols is how many columns seed InitialFit before streaming
	// begins (0 uses the server default). Must be at least 2.
	InitialCols int `json:"initial_cols,omitempty"`
}

// toCore maps the wire options onto the analyzer configuration with the
// server's lane count: compute.Shared keeps one engine per count, so the
// tenant runs on the server's pool.
func (o TenantOptions) toCore(workers int) core.Options {
	return core.Options{
		DT:              o.DT,
		MaxLevels:       o.MaxLevels,
		MaxCycles:       o.MaxCycles,
		NyquistFactor:   o.NyquistFactor,
		Rank:            o.Rank,
		UseSVHT:         o.UseSVHT,
		MinWindow:       o.MinWindow,
		Parallel:        o.Parallel,
		Workers:         workers,
		BlockColumns:    o.BlockColumns,
		DriftWindow:     o.DriftWindow,
		AmplitudeWindow: o.AmplitudeWindow,
		ColdHorizon:     o.ColdHorizon,
		DriftThreshold:  o.DriftThreshold,
	}
}

// latencyWindow bounds the per-tenant ingest latency reservoir the
// percentile stats are computed over (newest batches win).
const latencyWindow = 4096

// tenant is one registered stream: an analyzer, the push-based feeder
// that seeds it, and the ingest accounting its stats endpoint reports.
// Mutable state is guarded by mu — ingest and snapshot calls on the same
// tenant serialize, while different tenants proceed concurrently on the
// shared engine. The QUERY path never touches mu: every state-changing
// call ends by publishing an immutable PublishedResult through the
// atomic pub/history pointers, and readers load those.
type tenant struct {
	id      string
	created time.Time

	// seeded latches true when InitialFit has run (set at seed time,
	// never cleared) so pre-publish callers check seededness without the
	// tenant lock.
	seeded atomic.Bool
	// pub is the current copy-on-write read-side result; history the
	// immutable ring of recent results backing ?since deltas and SSE
	// resume. Writers swap whole values; readers only load.
	pub     atomic.Pointer[PublishedResult]
	history atomic.Pointer[[]*PublishedResult]
	hub     pubHub
	// frags is the fragment dictionary of the last spectrum render,
	// written only inside a result's SpectrumBody render (see
	// PublishedResult.frags).
	frags atomic.Pointer[spectrumFrags]

	mu         sync.Mutex
	version    uint64 // publish counter; monotone under mu
	opts       TenantOptions
	inc        *core.Incremental
	feeder     *stream.Feeder
	ingests    int
	batches    int
	latencies  []time.Duration // ring of the last latencyWindow batch latencies
	latPos     int
	latScratch []time.Duration // reusable sort buffer for the quantiles
}

// newTenant validates opts (through the core Options.Validate path) and
// builds an unseeded tenant on the server's engine, compute.Shared(workers).
func newTenant(id string, opts TenantOptions, workers, defaultInitialCols int) (*tenant, error) {
	if opts.InitialCols == 0 {
		opts.InitialCols = defaultInitialCols
	}
	if opts.InitialCols > maxInitialCols {
		return nil, fmt.Errorf("initial_cols %d is over the %d-column bound", opts.InitialCols, maxInitialCols)
	}
	copts := opts.toCore(workers)
	if err := copts.Validate(); err != nil {
		return nil, err
	}
	inc := core.NewIncremental(copts)
	feeder, err := stream.NewFeeder(inc, opts.InitialCols)
	if err != nil {
		return nil, err
	}
	t := &tenant{id: id, created: time.Now(), opts: opts, inc: inc, feeder: feeder}
	t.mu.Lock()
	t.publishLocked()
	t.mu.Unlock()
	return t, nil
}

// restoreTenant rebuilds a tenant from a snapshot stream, landing the
// decoded analyzer on the server's engine, compute.Shared(workers), with
// the Options a tenant created on this server has. The restored feeder
// starts seeded: snapshots only exist for fitted analyzers.
func restoreTenant(id string, r io.Reader, workers int) (*tenant, error) {
	inc, err := core.DecodeIncrementalOn(r, workers)
	if err != nil {
		return nil, err
	}
	copts := inc.Options()
	opts := TenantOptions{
		DT:              copts.DT,
		MaxLevels:       copts.MaxLevels,
		MaxCycles:       copts.MaxCycles,
		NyquistFactor:   copts.NyquistFactor,
		Rank:            copts.Rank,
		UseSVHT:         copts.UseSVHT,
		MinWindow:       copts.MinWindow,
		Parallel:        copts.Parallel,
		BlockColumns:    copts.BlockColumns,
		DriftWindow:     copts.DriftWindow,
		AmplitudeWindow: copts.AmplitudeWindow,
		ColdHorizon:     copts.ColdHorizon,
		DriftThreshold:  copts.DriftThreshold,
		InitialCols:     inc.SeedCols(),
	}
	t := &tenant{id: id, created: time.Now(), opts: opts, inc: inc, feeder: stream.ResumeFeeder(inc)}
	t.mu.Lock()
	t.publishLocked()
	t.mu.Unlock()
	return t, nil
}

// ingest pushes already-decoded batches through the feeder, recording
// per-batch latency. It returns how many columns and batches were
// absorbed — on error, the counts say how far the ingest got before the
// failing batch (everything before it is permanently absorbed). The
// final state — complete or partial — is published as the new read-side
// result before the lock is released, so queries observe every ingest
// exactly once and never a half-applied one. Before the seed, a batch
// that would take the pending buffer past maxPending bytes fails with 413
// and is not absorbed: a tenant holding more could never restore from its
// own snapshot.
func (t *tenant) ingest(batches []*mat.Dense, maxPending int64) (cols, done int, pub *PublishedResult, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ingests++
	defer func() { pub = t.publishLocked() }()
	for _, b := range batches {
		if !t.feeder.Seeded() && int64(t.feeder.Pending()+b.C)*int64(b.R)*8 > maxPending {
			return cols, done, nil, fail(http.StatusRequestEntityTooLarge,
				fmt.Errorf("%d pending columns of %d sensors would pass the %d-byte pre-seed bound", t.feeder.Pending()+b.C, b.R, maxPending))
		}
		start := time.Now()
		if perr := t.feeder.Push(b); perr != nil {
			return cols, done, nil, perr
		}
		t.recordLatency(time.Since(start))
		cols += b.C
		done++
		t.batches++
	}
	return cols, done, nil, nil
}

// publishLocked assembles the immutable read-side result from the
// current analyzer state and swaps it into the atomic pointer, the
// history ring, and every SSE subscriber's queue. Requires t.mu; it is
// the ONLY writer of the atomics, so results are stored in version
// order. The assembly is deliberately cheap — core.View walks the live
// tree once (no clones, grid-restricted error) and the four payloads
// marshal small structs — so publishing per ingest does not perturb the
// ingest latency the dashboards are watching.
func (t *tenant) publishLocked() *PublishedResult {
	t.version++
	seeded := t.feeder.Seeded()
	if seeded {
		t.seeded.Store(true)
	}
	view := t.inc.View()
	pub := newPublishedResult(t.version, seeded, view, t.statusLocked(view), &t.frags)
	t.pub.Store(pub)
	old := t.history.Load()
	var hist []*PublishedResult
	if old != nil {
		tail := *old
		if len(tail) >= pubHistoryLen {
			tail = tail[len(tail)-pubHistoryLen+1:]
		}
		hist = make([]*PublishedResult, 0, len(tail)+1)
		hist = append(hist, tail...)
	}
	hist = append(hist, pub)
	t.history.Store(&hist)
	t.hub.broadcast(pub)
	return pub
}

// lookupPublished finds a still-retained published result by version
// (nil when it has aged out of the ring). Lock-free.
func (t *tenant) lookupPublished(version uint64) *PublishedResult {
	h := t.history.Load()
	if h == nil {
		return nil
	}
	for _, p := range *h {
		if p.Version == version {
			return p
		}
	}
	return nil
}

func (t *tenant) recordLatency(d time.Duration) {
	if len(t.latencies) < latencyWindow {
		t.latencies = append(t.latencies, d)
		return
	}
	t.latencies[t.latPos] = d
	t.latPos = (t.latPos + 1) % latencyWindow
}

// latencyQuantiles returns the p50 and p99 of the recorded batch
// latencies (zeros when nothing has been ingested). The sort runs on a
// scratch slice retained across calls — sized once to the ring cap — so
// computing the published quantiles allocates nothing under the tenant
// lock. (Before the publish layer this copied-and-sorted the whole ring
// on every /stats request; now it runs once per ingest.)
func (t *tenant) latencyQuantiles() (p50, p99 time.Duration) {
	n := len(t.latencies)
	if n == 0 {
		return 0, 0
	}
	if cap(t.latScratch) < n {
		t.latScratch = make([]time.Duration, latencyWindow)
	}
	s := t.latScratch[:n]
	copy(s, t.latencies)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return stream.Quantile(s, 0.50), stream.Quantile(s, 0.99)
}

// TenantStatus is the wire form of one tenant's state summary.
type TenantStatus struct {
	ID string `json:"id"`
	// Version is the published-result version this status was frozen at
	// — the value ?since and SSE Last-Event-ID speak.
	Version uint64  `json:"version"`
	Created string  `json:"created"`
	Seeded  bool    `json:"seeded"`
	Pending int     `json:"pending_columns"`
	Steps   int     `json:"steps"`
	Sensors int     `json:"sensors"`
	Updates int     `json:"updates"`
	Ingests int     `json:"ingests"`
	Batches int     `json:"batches"`
	P50Ms   float64 `json:"ingest_p50_ms"`
	P99Ms   float64 `json:"ingest_p99_ms"`
	// ResidentBytes is the tenant's resident raw-history footprint across
	// both storage tiers; RawColdCols counts the columns demoted to the
	// f32 cold tier (0 unless cold_horizon is set).
	ResidentBytes int64 `json:"resident_bytes"`
	RawColdCols   int   `json:"raw_cold_cols"`
	// Recomputes counts the drift-triggered subtree recomputes (non-zero
	// only with drift_threshold set). Each runs inside the ingest that
	// triggered it, so the published modes and spectrum already carry it.
	Recomputes int `json:"recomputes"`

	Options TenantOptions `json:"options"`
}

// statusLocked snapshots the tenant summary for publication, taking the
// analyzer counts from the View the publish already built. Requires t.mu
// (it reads the ingest accounting); query traffic reads the frozen copy
// inside the published result instead of calling this.
func (t *tenant) statusLocked(view core.View) TenantStatus {
	p50, p99 := t.latencyQuantiles()
	ms := t.inc.MemStats()
	return TenantStatus{
		ID:            t.id,
		Version:       t.version,
		Created:       t.created.UTC().Format(time.RFC3339),
		Seeded:        t.feeder.Seeded(),
		Pending:       t.feeder.Pending(),
		Steps:         view.Steps,
		Sensors:       view.Sensors,
		Updates:       view.Updates,
		Ingests:       t.ingests,
		Batches:       t.batches,
		P50Ms:         float64(p50) / float64(time.Millisecond),
		P99Ms:         float64(p99) / float64(time.Millisecond),
		ResidentBytes: ms.HotBytes + ms.ColdBytes,
		RawColdCols:   ms.ColdSteps,
		Recomputes:    view.Recomputes,
		Options:       t.opts,
	}
}

// snapshot serializes the analyzer into a memory buffer and returns the
// bytes. Serializing under the lock but NEVER writing to a caller-paced
// sink while holding it keeps a slow snapshot downloader (or a stalled
// disk) from blocking the tenant's ingest path — the same
// lock-across-client-I/O rule the ingest side follows. Unseeded tenants
// have no incremental state to save — checked on the latched atomic
// flag, so the refusal does not touch the tenant lock.
func (t *tenant) snapshot() ([]byte, error) {
	if !t.seeded.Load() {
		return nil, errSnapshotUnseeded
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	if err := t.inc.Snapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

var errSnapshotUnseeded = fmt.Errorf("tenant has not seeded yet; nothing to snapshot")
