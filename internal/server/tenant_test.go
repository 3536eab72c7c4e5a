package server

import (
	"bytes"
	"runtime"
	"testing"

	"imrdmd/internal/bench"
)

// codecBlock is the codec's block (codec.chunkLen): the one buffer a
// snapshot's Writer allocates besides the bytes it writes.
const codecBlock = 64 << 10

// allocatedBy returns the heap bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTenantSnapshotSized: a tenant's snapshot bytes are the analyzer's
// own Snapshot bytes, and once a tenant has taken one snapshot the next
// is written into a buffer sized from it, so it allocates no more than
// its own length plus one codec block (and what the analyzer's encoder
// allocates besides, a few KB at most) rather than the doubling growth
// of an empty buffer.
func TestTenantSnapshotSized(t *testing.T) {
	const seed, batch = 512, 40
	data := bench.SCLogData(48, seed+40*batch, 5)
	opts := TenantOptions{DT: 20, MaxLevels: 6, MaxCycles: 2, UseSVHT: true, BlockColumns: 8,
		DriftWindow: 64, AmplitudeWindow: 64, ColdHorizon: 512, InitialCols: seed}
	tn, err := newTenant("s", opts, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	snapshotMatches := func(stage string) []byte {
		t.Helper()
		got, err := tn.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := tn.inc.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: tenant snapshot (%d bytes) differs from the analyzer's (%d bytes)", stage, len(got), want.Len())
		}
		return got
	}
	streamVersions(t, tn, data, 0, seed+20*batch, batch)
	first := snapshotMatches("first")

	const slack = 8 << 10
	var second []byte
	n := allocatedBy(func() { second, _ = tn.snapshot() })
	if !bytes.Equal(second, first) {
		t.Fatal("a second snapshot of the same state differs from the first")
	}
	if limit := uint64(len(second) + codecBlock + slack); n > limit {
		t.Fatalf("second snapshot of %d bytes allocated %d bytes, over %d", len(second), n, limit)
	}
	t.Logf("second snapshot: %d bytes, allocated %d", len(second), n)

	streamVersions(t, tn, data, seed+20*batch, data.C, batch)
	third := snapshotMatches("after more ingest")
	t.Logf("snapshot after %d more columns: %d bytes (was %d)", 20*batch, len(third), len(first))
}
