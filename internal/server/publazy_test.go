package server

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"imrdmd/internal/core"
)

// TestPublishRendersLazily pins the lockio fix: newPublishedResult runs
// with the tenant mutex held, so it must not marshal anything — every
// response body renders on first read, outside the critical section.
func TestPublishRendersLazily(t *testing.T) {
	view := core.View{NumModes: 3, MaxLevel: 2, Nodes: 5, Steps: 400, GridCols: 40, LastDrift: 0.25, GridError: 1.5}
	st := TenantStatus{Updates: 7}
	pub := newPublishedResult(9, true, view, st, new(atomic.Pointer[spectrumFrags]))

	if pub.modesJSON != nil || pub.errorJSON != nil || pub.statusJSON != nil || pub.spectrumJSON != nil {
		t.Fatal("newPublishedResult pre-rendered a body; publish runs under the tenant mutex and must stay marshal-free")
	}

	modes, modesTag := pub.ModesBody()
	var mp modesPayload
	if err := json.Unmarshal(modes, &mp); err != nil {
		t.Fatalf("modes body: %v", err)
	}
	if mp != (modesPayload{Modes: 3, Levels: 2, Nodes: 5, Steps: 400}) {
		t.Fatalf("modes body %+v does not reflect the frozen view", mp)
	}
	errBody, errTag := pub.ErrorBody()
	var ep errorPayload
	if err := json.Unmarshal(errBody, &ep); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if ep != (errorPayload{ReconError: 1.5, Steps: 400, GridCols: 40, Drift: 0.25}) {
		t.Fatalf("error body %+v does not reflect the frozen view", ep)
	}
	status, statusTag := pub.StatusBody()
	var sp TenantStatus
	if err := json.Unmarshal(status, &sp); err != nil {
		t.Fatalf("status body: %v", err)
	}
	if sp.Updates != 7 {
		t.Fatalf("status body %+v does not reflect the frozen status", sp)
	}

	for _, tag := range []string{modesTag, errTag, statusTag} {
		if len(tag) < 4 || tag[0] != '"' || tag[len(tag)-1] != '"' {
			t.Fatalf("ETag %q is not a quoted strong tag", tag)
		}
	}

	// Frozen bytes: every subsequent read sees the identical slice.
	again, againTag := pub.ModesBody()
	if &again[0] != &modes[0] || againTag != modesTag {
		t.Fatal("ModesBody re-rendered; bodies must freeze after the first read")
	}
}

// TestPublishBodyConcurrentReaders drives the lazy render from many
// goroutines; the race detector (CI runs this package with -race) makes
// any once-less mutation visible.
func TestPublishBodyConcurrentReaders(t *testing.T) {
	view := core.View{NumModes: 2, MaxLevel: 1, Nodes: 1, Steps: 10}
	pub := newPublishedResult(1, true, view, TenantStatus{}, new(atomic.Pointer[spectrumFrags]))
	var wg sync.WaitGroup
	bodies := make([][]byte, 16)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := pub.ModesBody()
			eb, _ := pub.ErrorBody()
			sb, _ := pub.StatusBody()
			bodies[i] = append(append(append([]byte(nil), body...), eb...), sb...)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("reader %d saw different frozen bytes", i)
		}
	}
}
