package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"imrdmd/internal/codec"
)

// PR 9 contract tests for the flat-horizon pipeline: the O(Δ) slow-grid
// cache must be invisible (bit-identical to re-evaluating from scratch),
// the drift log must behave as a bounded ring, the f32 cold tier must not
// perturb the fitted spectrum, the streamed ReconError must match the
// full-clone reference, and v1 snapshots must still restore.

// modesEqual reports whether two nodes carry bit-identical mode sets.
func modesEqual(t *testing.T, ctx string, a, b *Node) {
	t.Helper()
	if len(a.Modes) != len(b.Modes) {
		t.Fatalf("%s: %d modes vs %d", ctx, len(a.Modes), len(b.Modes))
	}
	for j := range a.Modes {
		ma, mb := &a.Modes[j], &b.Modes[j]
		if ma.Lambda != mb.Lambda || ma.Psi != mb.Psi || ma.Amp != mb.Amp {
			t.Fatalf("%s mode %d: scalars differ (%v/%v/%v vs %v/%v/%v)",
				ctx, j, ma.Lambda, ma.Psi, ma.Amp, mb.Lambda, mb.Psi, mb.Amp)
		}
		for i := range ma.Phi {
			if ma.Phi[i] != mb.Phi[i] {
				t.Fatalf("%s mode %d: Phi[%d] differs", ctx, j, i)
			}
		}
	}
}

// treesEqual asserts two analyzers hold bit-identical decompositions.
func treesEqual(t *testing.T, a, b *Incremental) {
	t.Helper()
	ta, tb := a.Tree(), b.Tree()
	if len(ta.Nodes) != len(tb.Nodes) {
		t.Fatalf("node count %d vs %d", len(ta.Nodes), len(tb.Nodes))
	}
	for k := range ta.Nodes {
		na, nb := ta.Nodes[k], tb.Nodes[k]
		if na.Start != nb.Start || na.End != nb.End || na.Level != nb.Level {
			t.Fatalf("node %d window/level differ: [%d,%d)@%d vs [%d,%d)@%d",
				k, na.Start, na.End, na.Level, nb.Start, nb.End, nb.Level)
		}
		modesEqual(t, "node", na, nb)
	}
}

// TestSlowGridCacheBitIdentical: with default options, PartialFit served
// from the cached slow-grid evaluation must produce bit-identical drifts
// and trees to an analyzer whose cache is dropped before every update
// (forcing the fresh full-window evaluation — the pre-PR-9 arithmetic).
func TestSlowGridCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data, _ := multiscale(rng, 10, 1024, 1, 0.1)
	init, batch := 512, 64

	cached := NewIncremental(defaultOpts())
	fresh := NewIncremental(defaultOpts())
	seed := data.ColSlice(0, init)
	if err := cached.InitialFit(seed); err != nil {
		t.Fatal(err)
	}
	if err := fresh.InitialFit(seed.Clone()); err != nil {
		t.Fatal(err)
	}
	for lo := init; lo < data.C; lo += batch {
		hi := lo + batch
		if hi > data.C {
			hi = data.C
		}
		blk := data.ColSlice(lo, hi)
		// Force the reference analyzer down the no-cache fallback path.
		fresh.mu.Lock()
		fresh.invalidateSlowGrid()
		fresh.mu.Unlock()
		sc, err := cached.PartialFit(blk)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := fresh.PartialFit(blk.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if sc.Drift != sf.Drift {
			t.Fatalf("step at %d: cached drift %v != fresh drift %v (must be bit-identical)",
				lo, sc.Drift, sf.Drift)
		}
	}
	treesEqual(t, cached, fresh)
	dc, df := cached.DriftLog(), fresh.DriftLog()
	for i := range dc {
		if dc[i] != df[i] {
			t.Fatalf("drift log entry %d differs: %v vs %v", i, dc[i], df[i])
		}
	}
}

// TestGridErrorCacheBitIdentical: View served from the folded segment
// sum (gridSeg) must publish the same GridError bits and GridCols as a
// twin whose cache is dropped before every View — the from-scratch sum —
// through every event that refits or reshapes the tree: a
// DriftThreshold-triggered recompute, an AddSensors and a
// snapshot/restore.
func TestGridErrorCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	const p, extra = 10, 2
	data, _ := multiscale(rng, p+extra, 1536, 1, 0.1)
	init, batch := 512, 64

	cached := NewIncremental(defaultOpts())
	fresh := NewIncremental(defaultOpts())
	seed := data.RowSlice(0, p).ColSlice(0, init)
	if err := cached.InitialFit(seed); err != nil {
		t.Fatal(err)
	}
	if err := fresh.InitialFit(seed.Clone()); err != nil {
		t.Fatal(err)
	}
	step := 0
	check := func(event string) {
		t.Helper()
		fresh.mu.Lock()
		fresh.invalidateGridSeg()
		fresh.mu.Unlock()
		vc, vf := cached.View(), fresh.View()
		if math.Float64bits(vc.GridError) != math.Float64bits(vf.GridError) || vc.GridCols != vf.GridCols {
			t.Fatalf("step %d (%s): cached GridError %v over %d cols, fresh %v over %d (must be bit-identical)",
				step, event, vc.GridError, vc.GridCols, vf.GridError, vf.GridCols)
		}
		cached.mu.Lock()
		folded, live := cached.gridFolded, cached.gridSeg != nil
		nseg := len(cached.segments)
		cached.mu.Unlock()
		if !live || folded != nseg {
			t.Fatalf("step %d (%s): cache not live after View (folded %d of %d segments)", step, event, folded, nseg)
		}
		step++
	}
	check("initial fit")
	sensors := p
	feed := func(lo, hi int, event string) {
		t.Helper()
		blk := data.RowSlice(0, sensors).ColSlice(lo, hi)
		if _, err := cached.PartialFit(blk); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.PartialFit(blk.Clone()); err != nil {
			t.Fatal(err)
		}
		check(event)
	}
	lo := init
	next := func(event string) {
		feed(lo, lo+batch, event)
		lo += batch
	}
	for i := 0; i < 3; i++ {
		next("stream")
	}
	for _, a := range []*Incremental{cached, fresh} {
		a.DriftThreshold = 1e-300
	}
	next("recompute")
	if cached.Recomputes() == 0 {
		t.Fatal("the drift threshold did not trigger a recompute")
	}
	for _, a := range []*Incremental{cached, fresh} {
		a.DriftThreshold = 0
	}
	next("stream")

	rows := data.RowSlice(p, p+extra).ColSlice(0, lo)
	if err := cached.AddSensors(rows); err != nil {
		t.Fatal(err)
	}
	if err := fresh.AddSensors(rows.Clone()); err != nil {
		t.Fatal(err)
	}
	sensors = p + extra
	check("add sensors")
	next("stream after add sensors")

	restore := func(a *Incremental) *Incremental {
		var buf bytes.Buffer
		if err := a.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := DecodeIncremental(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cached, fresh = restore(cached), restore(fresh)
	check("restore")
	for lo+batch <= data.C {
		next("stream after restore")
	}
}

// TestDriftLogRing: past driftLogCap entries the log must behave as a
// ring — bounded length, oldest-first iteration, correct last entry.
func TestDriftLogRing(t *testing.T) {
	inc := NewIncremental(defaultOpts())
	const n = driftLogCap + 357
	for i := 0; i < n; i++ {
		inc.logDrift(float64(i))
	}
	log := inc.DriftLog()
	if len(log) != driftLogCap {
		t.Fatalf("ring length %d, want %d", len(log), driftLogCap)
	}
	for i, v := range log {
		if want := float64(n - driftLogCap + i); v != want {
			t.Fatalf("entry %d = %v, want %v (oldest-first order broken)", i, v, want)
		}
	}
	if last := inc.lastDriftLocked(); last != float64(n-1) {
		t.Fatalf("lastDrift = %v, want %v", last, float64(n-1))
	}
	// While filling, the log is a plain append in insertion order.
	short := NewIncremental(defaultOpts())
	for i := 0; i < 5; i++ {
		short.logDrift(float64(10 + i))
	}
	sl := short.DriftLog()
	if len(sl) != 5 || sl[0] != 10 || sl[4] != 14 || short.lastDriftLocked() != 14 {
		t.Fatalf("filling-phase log wrong: %v", sl)
	}
}

// TestColdTierSpectrumUnchanged: the f32 cold tier stores only history the
// pipeline no longer fits against — every level-1 grid sample and every
// new-window residual is gathered while still hot — so the fitted
// decomposition must be bit-identical with and without ColdHorizon, and
// only raw-data queries (Raw, ReconError) see f32 rounding.
func TestColdTierSpectrumUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	data, _ := multiscale(rng, 8, 1536, 1, 0.1)
	init, batch := 512, 64

	optsCold := defaultOpts()
	optsCold.ColdHorizon = 192
	cold := NewIncremental(optsCold)
	warm := NewIncremental(defaultOpts())
	seed := data.ColSlice(0, init)
	if err := cold.InitialFit(seed); err != nil {
		t.Fatal(err)
	}
	if err := warm.InitialFit(seed.Clone()); err != nil {
		t.Fatal(err)
	}
	for lo := init; lo < data.C; lo += batch {
		blk := data.ColSlice(lo, lo+batch)
		if _, err := cold.PartialFit(blk); err != nil {
			t.Fatal(err)
		}
		if _, err := warm.PartialFit(blk.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	treesEqual(t, cold, warm)

	ms := cold.MemStats()
	if ms.ColdCols == 0 {
		t.Fatal("no columns demoted — cold tier never engaged")
	}
	if ms.Cols != data.C {
		t.Fatalf("MemStats.Cols = %d, want %d", ms.Cols, data.C)
	}
	if ms.ColdBytes == 0 || ms.HotBytes == 0 {
		t.Fatalf("tier byte accounting empty: hot=%d cold=%d", ms.HotBytes, ms.ColdBytes)
	}
	wms := warm.MemStats()
	if wms.ColdCols != 0 || wms.ColdBytes != 0 {
		t.Fatalf("warm analyzer reports cold state: %+v", wms)
	}

	// Raw() must round-trip: hot columns exact, cold columns within one
	// f32 rounding of the ingested values.
	raw := cold.Raw()
	coldCols := ms.ColdCols
	for i := 0; i < data.R; i++ {
		for k := 0; k < data.C; k++ {
			x, got := data.At(i, k), raw.At(i, k)
			if k >= coldCols {
				if got != x {
					t.Fatalf("hot column %d row %d: %v != %v (must be exact)", k, i, got, x)
				}
			} else if got != float64(float32(x)) {
				t.Fatalf("cold column %d row %d: %v != float64(float32(%v))", k, i, got, x)
			}
		}
	}

	// The full-resolution error only picks up f32 rounding on cold raw
	// columns — tiny against the reconstruction error itself.
	ec, ew := cold.ReconError(), warm.ReconError()
	if math.IsNaN(ec) || math.IsInf(ec, 0) {
		t.Fatalf("cold ReconError not finite: %v", ec)
	}
	if rel := math.Abs(ec-ew) / ew; rel > 1e-6 {
		t.Fatalf("cold/warm ReconError diverge: %v vs %v (rel %g)", ec, ew, rel)
	}
}

// TestStreamedReconErrorMatchesReference: the windowed streaming scan must
// reproduce the full-clone reference ‖raw − Reconstruct()‖_F to roundoff,
// including when history spans multiple scan windows.
func TestStreamedReconErrorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	data, _ := multiscale(rng, 6, 512+4*256, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	for lo := 512; lo < data.C; lo += 256 {
		if _, err := inc.PartialFit(data.ColSlice(lo, lo+256)); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Cols() <= reconErrWindow {
		t.Fatalf("test premise: want > %d columns to span multiple scan windows, got %d",
			reconErrWindow, inc.Cols())
	}
	got := inc.ReconError()
	// Reference: one consistent full-resolution pass (the pre-PR-9 shape).
	raw := inc.Raw()
	want := frobDiff(raw, inc.Reconstruct())
	if want == 0 {
		t.Fatal("degenerate reference")
	}
	if rel := math.Abs(got-want) / want; rel > 1e-8 {
		t.Fatalf("streamed ReconError %v vs reference %v (rel %g)", got, want, rel)
	}
}

// TestV1SnapshotRestores: a version-1 stream — flat f64 history, no
// windowing options, unbounded drift log — must decode into a working
// analyzer whose continued updates match the live original bit for bit.
func TestV1SnapshotRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	data, _ := multiscale(rng, 8, 768, 1, 0.1)
	inc := NewIncremental(defaultOpts())
	if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.PartialFit(data.ColSlice(512, 640)); err != nil {
		t.Fatal(err)
	}

	restored, err := DecodeIncremental(bytes.NewReader(encodeV1(t, inc)))
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	if restored.Cols() != inc.Cols() || restored.Updates() != inc.Updates() {
		t.Fatalf("restored state mismatch: %d/%d cols, %d/%d updates",
			restored.Cols(), inc.Cols(), restored.Updates(), inc.Updates())
	}
	treesEqual(t, restored, inc)

	// Both continue the stream identically: the restored analyzer's first
	// update takes the fresh-evaluation fallback, which is bit-identical
	// to the live analyzer's cached path.
	blk := data.ColSlice(640, 768)
	sa, err := inc.PartialFit(blk)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := restored.PartialFit(blk.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if sa.Drift != sb.Drift {
		t.Fatalf("post-restore drift %v != live %v (must be bit-identical)", sb.Drift, sa.Drift)
	}
	treesEqual(t, restored, inc)
}

// TestAsyncSlotRestoresInline: snapshots from releases that could run
// drift recomputes in the background carry that flag, set, in the bool
// slot after DriftThreshold. The decoder ignores the slot. Restored from
// a version-1 stream or a current one with the slot set, the analyzer
// snapshots byte-identically to the live analyzer (the slot written
// clear), then recomputes inline and continues the stream bit-identically
// to it.
func TestAsyncSlotRestoresInline(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	data, _ := multiscale(rng, 8, 896, 1, 0.1)
	live := func() *Incremental {
		inc := NewIncremental(defaultOpts())
		inc.DriftThreshold = 1e-9 // recompute on every update
		if err := inc.InitialFit(data.ColSlice(0, 512)); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.PartialFit(data.ColSlice(512, 640)); err != nil {
			t.Fatal(err)
		}
		return inc
	}
	current := func(inc *Incremental) []byte {
		var buf bytes.Buffer
		if err := inc.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, v := range []struct {
		name   string
		encode func(*Incremental) []byte
	}{
		{"v1", func(inc *Incremental) []byte { return encodeV1(t, inc) }},
		{"current", func(inc *Incremental) []byte { return withAsyncSlot(t, inc, current(inc)) }},
	} {
		inc := live()
		restored, err := DecodeIncremental(bytes.NewReader(v.encode(inc)))
		if err != nil {
			t.Fatalf("%s: snapshot with the async slot set rejected: %v", v.name, err)
		}
		if !bytes.Equal(current(restored), current(inc)) {
			t.Fatalf("%s: snapshot of the restored analyzer differs from the live one's", v.name)
		}
		for lo := 640; lo < data.C; lo += 128 {
			blk := data.ColSlice(lo, lo+128)
			sa, err := inc.PartialFit(blk)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := restored.PartialFit(blk.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if !sb.Recomputed || sa != sb {
				t.Fatalf("%s: update at %d: restored %+v, live %+v (want an inline recompute, bit-identical)", v.name, lo, sb, sa)
			}
			treesEqual(t, restored, inc)
		}
	}
}

// withAsyncSlot returns raw, a current-layout snapshot of inc, with the
// retired async-recompute slot — the bool after the options and
// DriftThreshold — set, re-framed so its checksum stays valid.
func withAsyncSlot(t *testing.T, inc *Incremental, raw []byte) []byte {
	t.Helper()
	var opts bytes.Buffer
	encodeOptions(codec.NewWriter(&opts), inc.opts)
	at := opts.Len() - snapshotHeaderLen + 8 // past the options and DriftThreshold
	version, body := unframeSnapshot(t, raw)
	if body[at] != 0 {
		t.Fatalf("async slot holds %d, want 0", body[at])
	}
	body = append([]byte(nil), body...)
	body[at] = 1
	return frameSnapshot(uint32(version), body)
}

// encodeV1 hand-encodes inc's live state in the version-1 layout (PR 8):
// one flat f64 history matrix, no windowing options, the unsharded
// level-1 payload.
func encodeV1(t testing.TB, inc *Incremental) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := codec.NewWriterVersion(&buf, 1)
	o := inc.opts
	enc.Float(o.DT)
	enc.Int(o.MaxLevels)
	enc.Int(o.MaxCycles)
	enc.Int(o.NyquistFactor)
	enc.Int(o.Rank)
	enc.Bool(o.UseSVHT)
	enc.Int(o.MinWindow)
	enc.Bool(o.Parallel)
	enc.Int(o.Workers)
	enc.Int(o.BlockColumns)
	enc.String("float64") // precision tier
	enc.Int(1)            // shard count
	enc.Float(inc.DriftThreshold)
	enc.Bool(true) // retired async-recompute slot, set: decoders ignore it
	enc.Int(inc.p)
	enc.Dense(inc.hist.Promote()) // v1: one flat f64 history matrix
	enc.Int(inc.stride1)
	enc.Dense(inc.sub1)
	enc.Int(inc.nextSample)
	encodeNode(enc, inc.level1)
	enc.Int(len(inc.segments))
	for _, seg := range inc.segments {
		enc.Int(seg.start)
		enc.Int(seg.end)
		enc.Int(len(seg.nodes))
		for _, nd := range seg.nodes {
			encodeNode(enc, nd)
		}
	}
	enc.Int(inc.updates)
	enc.Int(inc.recomputes)
	enc.Floats(inc.driftLogChrono())
	enc.Int(isvdUnsharded)
	inc.isvd.Encode(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
