package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"imrdmd/internal/bench"
	"imrdmd/internal/compute"
	"imrdmd/internal/core"
)

// TestTenantOptionsMirrorCore pins the one hand-written mirror of
// core.Options that stays: the JSON wire form. Every TenantOptions field
// but the seed width names a core.Options field of the same type, every
// core.Options field but Workers (the server's, not the tenant's) has a
// wire field, and a tenant created with every field set reports the same
// options after a snapshot and a PUT restore — which fails when toCore or
// restoreTenant drops a field.
func TestTenantOptionsMirrorCore(t *testing.T) {
	wire, lib := reflect.TypeOf(TenantOptions{}), reflect.TypeOf(core.Options{})
	for i := 0; i < wire.NumField(); i++ {
		f := wire.Field(i)
		if f.Name == "InitialCols" {
			continue
		}
		if cf, ok := lib.FieldByName(f.Name); !ok || cf.Type != f.Type {
			t.Errorf("TenantOptions.%s (%s) has no core.Options field of that name and type", f.Name, f.Type)
		}
	}
	for i := 0; i < lib.NumField(); i++ {
		f := lib.Field(i)
		if _, ok := wire.FieldByName(f.Name); !ok && f.Name != "Workers" {
			t.Errorf("core.Options.%s has no TenantOptions field", f.Name)
		}
	}

	// Every value differs from the zero value and from core's defaults,
	// so a field dropped on either side of the round trip shows.
	opts := TenantOptions{
		DT: 20, MaxLevels: 4, MaxCycles: 3, NyquistFactor: 5, Rank: 6,
		UseSVHT: true, MinWindow: 9, Parallel: true, BlockColumns: 8,
		DriftThreshold: 0.5, DriftWindow: 16, AmplitudeWindow: 32,
		ColdHorizon: 256, InitialCols: 512,
	}
	ov := reflect.ValueOf(opts)
	for i := 0; i < ov.NumField(); i++ {
		if ov.Field(i).IsZero() {
			t.Fatalf("TenantOptions.%s is zero in the round-trip options; give it a value", wire.Field(i).Name)
		}
	}
	body, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	statusOptions := func(c *testClient) TenantOptions {
		var st TenantStatus
		if err := json.Unmarshal(c.must("GET", "/v1/tenants/m/stats", "", nil, http.StatusOK), &st); err != nil {
			t.Fatal(err)
		}
		return st.Options
	}

	// The snapshot is taken past the seed, so a restore that reported
	// its absorbed steps as InitialCols would show.
	data := bench.SCLogData(48, opts.InitialCols+96, 7)
	c := newTestClient(t, New(Config{Workers: 2}))
	c.must("POST", "/v1/tenants/m", "application/json", body, http.StatusCreated)
	c.must("POST", "/v1/tenants/m/ingest", "text/csv", csvBody(t, data, 0, opts.InitialCols), http.StatusOK)
	c.must("POST", "/v1/tenants/m/ingest", "text/csv", csvBody(t, data, opts.InitialCols, data.C), http.StatusOK)
	if got := statusOptions(c); got != opts {
		t.Fatalf("created tenant reports options %+v, want %+v", got, opts)
	}
	snap := c.must("GET", "/v1/tenants/m/snapshot", "", nil, http.StatusOK)
	c2 := newTestClient(t, New(Config{Workers: 2}))
	c2.must("PUT", "/v1/tenants/m", "application/octet-stream", snap, http.StatusCreated)
	if got := statusOptions(c2); got != opts {
		t.Fatalf("restored tenant reports options %+v, want %+v", got, opts)
	}
}

// TestTenantEnginePinned: a tenant runs on its server's pool,
// compute.Shared(Config.Workers), and records Config.Workers in its
// snapshot — created or restored, and whatever lane count the snapshot
// it was restored from recorded. A negative Config.Workers means the
// GOMAXPROCS pool, as it does for the server's own engine.
func TestTenantEnginePinned(t *testing.T) {
	data := bench.SCLogData(24, 96, 11)
	seeded := func(s *Server, id string) *tenant {
		t.Helper()
		tn, err := s.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if !tn.seeded.Load() {
			t.Fatalf("tenant %s is not seeded", id)
		}
		return tn
	}
	for _, workers := range []int{0, 2, -1} {
		s := New(Config{Workers: workers, DefaultInitialCols: 64})
		c := newTestClient(t, s)
		c.must("POST", "/v1/tenants/e", "application/json", nil, http.StatusCreated)
		c.must("POST", "/v1/tenants/e/ingest", "text/csv", csvBody(t, data, 0, 64), http.StatusOK)
		if got, want := seeded(s, "e").inc.Engine(), compute.Shared(workers); got != want || got != s.eng {
			t.Fatalf("Workers %d: created tenant runs on a %d-lane engine, not the server's compute.Shared(%d)", workers, got.Workers(), workers)
		}
		snap := c.must("GET", "/v1/tenants/e/snapshot", "", nil, http.StatusOK)
		inc, err := core.DecodeIncremental(bytes.NewReader(snap))
		if err != nil {
			t.Fatal(err)
		}
		if got := inc.Options().Workers; got != max(workers, 0) {
			t.Fatalf("Workers %d: snapshot records %d lanes", workers, got)
		}

		// Restored on a server with another lane count, the tenant runs
		// on that server's pool, not the one its snapshot names.
		other := 3 - max(workers, 0)
		s2 := New(Config{Workers: other})
		c2 := newTestClient(t, s2)
		c2.must("PUT", "/v1/tenants/e", "application/octet-stream", snap, http.StatusCreated)
		c2.must("POST", "/v1/tenants/e/ingest", "text/csv", csvBody(t, data, 64, 96), http.StatusOK)
		if got := seeded(s2, "e").inc.Engine(); got != compute.Shared(other) {
			t.Fatalf("Workers %d: tenant restored on a %d-worker server runs on a %d-lane engine, not compute.Shared(%d)", workers, other, got.Workers(), other)
		}
		// And it records that server's lane count, as a tenant created
		// there does, so its next snapshot restores onto the same pool.
		back, err := core.DecodeIncremental(bytes.NewReader(c2.must("GET", "/v1/tenants/e/snapshot", "", nil, http.StatusOK)))
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Options().Workers; got != other {
			t.Fatalf("Workers %d: tenant restored on a %d-worker server re-snapshots %d lanes", workers, other, got)
		}
	}
}
