package compute

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestParallelForCoversRange(t *testing.T) {
	e := NewEngine(4)
	defer e.Close()
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1001} {
		seen := make([]int32, n)
		e.ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

func TestParallelForNilEngine(t *testing.T) {
	var e *Engine
	if w := e.Workers(); w != 1 {
		t.Fatalf("nil engine workers = %d", w)
	}
	sum := 0
	e.ParallelFor(10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("nil engine ParallelFor sum = %d", sum)
	}
	done := false
	e.Do(func() { done = true })
	if !done {
		t.Fatal("nil engine Do did not run")
	}
}

func TestNestedParallelForDoesNotDeadlock(t *testing.T) {
	e := NewEngine(3)
	defer e.Close()
	var total int64
	e.ParallelFor(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e.ParallelFor(8, func(lo2, hi2 int) {
				atomic.AddInt64(&total, int64(hi2-lo2))
			})
		}
	})
	if total != 64 {
		t.Fatalf("nested total = %d, want 64", total)
	}
}

func TestNestedDoDoesNotDeadlock(t *testing.T) {
	e := NewEngine(2)
	defer e.Close()
	var count int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			atomic.AddInt64(&count, 1)
			return
		}
		e.Do(func() { rec(depth - 1) }, func() { rec(depth - 1) })
	}
	rec(6)
	if count != 64 {
		t.Fatalf("leaf count = %d, want 64", count)
	}
}

func TestEngineGoroutineBound(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine(3) // 2 pool workers
	defer e.Close()
	var peak int32
	var cur int32
	e.ParallelFor(64, func(lo, hi int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
	})
	if peak > 3 {
		t.Fatalf("concurrency peak %d exceeds 3 lanes", peak)
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d; want at most +2", before, after)
	}
}

func TestClosedEngineRunsInline(t *testing.T) {
	e := NewEngine(4)
	e.Close()
	// Workers that have not yet observed quit may still take a band, so
	// accumulate atomically; the point is completion, not serialization.
	var sum int64
	e.ParallelFor(10, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt64(&sum, int64(i))
		}
	})
	if sum != 45 {
		t.Fatalf("closed engine sum = %d", sum)
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	a := ws.GetF64(100)
	a[0] = 42
	ws.PutF64(a)
	b := ws.GetF64(100)
	if &a[0] != &b[0] {
		t.Fatal("expected pooled buffer to be reused")
	}
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("len=%d cap=%d, want 100/128", len(b), cap(b))
	}
	// A slightly larger request in the same class also hits the pool.
	ws.PutF64(b)
	c := ws.GetF64(120)
	if &a[0] != &c[0] {
		t.Fatal("same size class must reuse the buffer")
	}
	gets, hits := ws.Stats()
	if gets != 3 || hits != 2 {
		t.Fatalf("stats = %d gets / %d hits, want 3/2", gets, hits)
	}
}

func TestWorkspaceZeroAndNil(t *testing.T) {
	ws := NewWorkspace()
	a := ws.GetF64(64)
	for i := range a {
		a[i] = 1
	}
	ws.PutF64(a)
	z := ws.GetF64Zero(64)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetF64Zero[%d] = %v", i, v)
		}
	}
	var nilWS *Workspace
	b := nilWS.GetF64Zero(10)
	if len(b) != 10 {
		t.Fatal("nil workspace must allocate")
	}
	nilWS.PutF64(b) // must not panic
	cz := nilWS.GetC128(5)
	if len(cz) != 5 {
		t.Fatal("nil workspace complex alloc")
	}
	nilWS.PutC128(cz)
}

func TestWorkspaceComplexReuse(t *testing.T) {
	ws := NewWorkspace()
	a := ws.GetC128(33)
	ws.PutC128(a)
	b := ws.GetC128(40) // same class (64)
	if &a[0] != &b[0] {
		t.Fatal("complex pool must reuse")
	}
}

func TestSharedEnginesAreCached(t *testing.T) {
	if Shared(2) != Shared(2) {
		t.Fatal("Shared(2) must return the same engine")
	}
	if Default() != Shared(0) {
		t.Fatal("Default must be Shared(0)")
	}
	if Shared(2).Workers() != 2 {
		t.Fatalf("Shared(2).Workers() = %d", Shared(2).Workers())
	}
}

// TestWorkspaceLargeClassCap checks the tighter retention bound on
// megabyte-scale size classes: small classes keep maxPerClass buffers,
// large ones only largeClassCap, and excess large Puts are dropped rather
// than pinned (returning a dropped buffer allocates fresh).
func TestWorkspaceLargeClassCap(t *testing.T) {
	if got := classCap(1 << 10); got != maxPerClass {
		t.Fatalf("classCap(small) = %d, want %d", got, maxPerClass)
	}
	if got := classCap(largeClassMin); got != largeClassCap {
		t.Fatalf("classCap(large) = %d, want %d", got, largeClassCap)
	}

	ws := NewWorkspace()
	const n = largeClassMin
	bufs := make([][]float64, largeClassCap+2)
	for i := range bufs {
		bufs[i] = ws.GetF64(n)
	}
	for _, b := range bufs {
		ws.PutF64(b)
	}
	for i := 0; i < largeClassCap+2; i++ {
		_ = ws.GetF64(n)
	}
	if _, hits := ws.Stats(); hits != largeClassCap {
		t.Fatalf("pool served %d large buffers, want exactly %d retained", hits, largeClassCap)
	}
}
