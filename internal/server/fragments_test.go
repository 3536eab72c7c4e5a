package server

import (
	"bytes"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/mat"
)

// streamVersions ingests columns [lo, hi) of data into tn, batch columns
// at a time, and returns the result each ingest published.
func streamVersions(t *testing.T, tn *tenant, data *mat.Dense, lo, hi, batch int) []*PublishedResult {
	t.Helper()
	var pubs []*PublishedResult
	for c := lo; c < hi; c += batch {
		_, _, pub, err := tn.ingest([]*mat.Dense{data.ColSlice(c, min(c+batch, hi))}, maxRestoreBody)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
	}
	return pubs
}

// TestSpectrumReuseByteIdentical holds the fragment-reusing spectrum
// render to a from-scratch render on every version of a P=200 SC-Log
// stream whose drift threshold recomputes old subtrees (so fragments go
// stale), across a snapshot restore (which starts with no fragments),
// and on a hand-built spectrum where +0 and -0 must not share a fragment.
func TestSpectrumReuseByteIdentical(t *testing.T) {
	const seed, batch = 256, 48
	data := bench.SCLogData(200, seed+24*batch, 3)
	opts := TenantOptions{DT: 20, MaxLevels: 5, MaxCycles: 2, UseSVHT: true, DriftThreshold: 300, InitialCols: seed}
	tn, err := newTenant("f", opts, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	// check also holds the tenant's dictionary to the last render, so the
	// next version has fragments to reuse.
	check := func(tn *tenant, pubs []*PublishedResult) {
		t.Helper()
		for _, pub := range pubs {
			body, _ := pub.SpectrumBody()
			if want := renderFull(pub.View.Spectrum); !bytes.Equal(body, want) {
				t.Fatalf("version %d (%d points, %d recomputes): reused render differs from a full render", pub.Version, len(pub.View.Spectrum), pub.View.Recomputes)
			}
			if d := tn.frags.Load(); len(pub.View.Spectrum) > 0 && (d == nil || &d.body[0] != &body[0]) {
				t.Fatalf("version %d: the tenant's fragment dictionary is not its last render's", pub.Version)
			}
		}
	}
	half := seed + 12*batch
	check(tn, streamVersions(t, tn, data, 0, seed, seed))
	check(tn, streamVersions(t, tn, data, seed, half, batch))
	snap, err := tn.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := restoreTenant("f", bytes.NewReader(snap), 1)
	if err != nil {
		t.Fatal(err)
	}
	check(back, []*PublishedResult{back.pub.Load()})
	check(back, streamVersions(t, back, data, half, data.C, batch))
	view := back.pub.Load().View
	if view.Recomputes == 0 || view.Recomputes == view.Updates {
		t.Fatalf("%d recomputes in %d updates: the threshold should recompute on some batches and not others", view.Recomputes, view.Updates)
	}

	// Signed zeros: a -0 point after a +0 one (and back) must be
	// formatted afresh, not served the other's fragment.
	negZero := math.Copysign(0, -1)
	spectra := [][]SpectrumPoint{
		{{Freq: 0, Power: 1, Amp: 2, Grow: 0, Level: 1}, {Freq: 0.5, Power: 3, Amp: 4, Grow: -0.25, Level: 2}},
		{{Freq: negZero, Power: 1, Amp: 2, Grow: 0, Level: 1}, {Freq: 0.5, Power: 3, Amp: 4, Grow: -0.25, Level: 3}},
		{{Freq: 0, Power: 1, Amp: 2, Grow: negZero, Level: 1}, {Freq: negZero, Power: 1, Amp: 2, Grow: negZero, Level: 2}},
		{{Freq: 0, Power: 1, Amp: 2, Grow: 0, Level: 1}, {Freq: 0, Power: 1, Amp: 2, Grow: 0, Level: 4}},
	}
	var frags *spectrumFrags
	for i, pts := range spectra {
		var body []byte
		body, frags = frags.render(pts)
		if want := renderFull(pts); !bytes.Equal(body, want) {
			t.Fatalf("signed-zero spectrum %d rendered %s, want %s", i, body, want)
		}
	}

	// The reuse is real: a fragment found in the dictionary is copied
	// from its body, whatever that body says.
	pts := spectra[0]
	_, frags = (*spectrumFrags)(nil).render(pts)
	frags.body = bytes.Replace(bytes.Clone(frags.body), []byte(`"power":3`), []byte(`"power":7`), 1)
	if body, _ := frags.render(pts); !bytes.Contains(body, []byte(`"power":7`)) {
		t.Fatalf("render re-formatted a point its dictionary holds: %s", body)
	}
}

// TestSpectrumReuseConcurrentRenders renders pairs of consecutive
// versions from two goroutines at once, both reading and replacing the
// tenant's one fragment dictionary; the race detector (CI runs this
// with -race) sees any unsynchronized access, and every body must still
// equal a from-scratch render.
func TestSpectrumReuseConcurrentRenders(t *testing.T) {
	const seed, batch = 256, 32
	data := bench.SCLogData(48, seed+16*batch, 5)
	tn, err := newTenant("r", TenantOptions{DT: 20, MaxLevels: 4, MaxCycles: 2, UseSVHT: true, InitialCols: seed}, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	pubs := streamVersions(t, tn, data, 0, data.C, batch)
	var shared atomic.Pointer[spectrumFrags]
	for i := 0; i+1 < len(pubs); i += 2 {
		pair := [2]*PublishedResult{}
		for k := range pair {
			p := pubs[i+k]
			pair[k] = newPublishedResult(p.Version, p.Seeded, p.View, p.Status, &shared)
		}
		var wg sync.WaitGroup
		for _, p := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.SpectrumBody()
			}()
		}
		wg.Wait()
		for _, p := range pair {
			if body, _ := p.SpectrumBody(); !bytes.Equal(body, renderFull(p.View.Spectrum)) {
				t.Fatalf("version %d rendered concurrently differs from a full render", p.Version)
			}
		}
	}
}
