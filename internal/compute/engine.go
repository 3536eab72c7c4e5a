// Package compute is the shared compute engine underneath the linear
// algebra stack: a long-lived worker pool (Engine) that replaces per-call
// goroutine spawning in hot kernels, and a Workspace of pooled, size-keyed
// scratch buffers that makes repeated decompositions allocation-stable.
//
// The package is a leaf (stdlib only, no imrdmd imports) so every layer —
// mat kernels, incremental SVD, DMD, the mrDMD core — can route its
// parallelism and scratch storage through one scheduler. See DESIGN.md §2
// for the engine contract.
package compute

import (
	"runtime"
	"sync"
)

// Engine is a fixed-size pool of worker goroutines fed by an unbuffered
// task channel. An Engine with W workers uses at most W concurrent lanes:
// the calling goroutine plus W−1 pool workers. Work is handed to a worker
// only when one is parked in receive; otherwise it runs inline on the
// caller, which makes nested ParallelFor/Do calls deadlock-free by
// construction (no task ever waits in a queue while its submitter blocks).
//
// A nil *Engine is valid and runs everything serially on the caller.
type Engine struct {
	workers int
	tasks   chan func()
	quit    chan struct{}
	once    sync.Once
}

// NewEngine creates an engine with the given number of lanes. workers <= 0
// defaults to runtime.GOMAXPROCS(0). The pool spawns workers−1 goroutines
// immediately; they live until Close.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: workers,
		tasks:   make(chan func()),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers-1; i++ {
		go e.worker()
	}
	return e
}

func (e *Engine) worker() {
	for {
		select {
		case f := <-e.tasks:
			f()
		case <-e.quit:
			return
		}
	}
}

// Workers returns the lane count (1 for a nil engine).
func (e *Engine) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// Close stops the pool workers. Tasks already handed to a worker finish;
// subsequent ParallelFor/Do calls run inline on the caller. Close is
// idempotent. Shared engines (Shared/Default) are never closed.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	e.once.Do(func() { close(e.quit) })
}

// offer hands t to a parked worker, or runs it inline when none is free
// (or the engine is closed).
func (e *Engine) offer(t func()) {
	select {
	case e.tasks <- t:
	case <-e.quit:
		t()
	default:
		t()
	}
}

// ParallelFor splits [0,n) into at most Workers() contiguous bands and
// runs fn(lo, hi) on each, returning when all bands are done. The caller
// executes at least one band itself. Safe to call from inside a band of an
// outer ParallelFor or Do on the same engine.
func (e *Engine) ParallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := e.Workers()
	if w > n {
		w = n
	}
	if e == nil || w <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		wg.Add(1)
		e.offer(func() {
			defer wg.Done()
			fn(lo, hi)
		})
	}
	fn(0, chunk)
	wg.Wait()
}

// Do runs the given tasks, possibly concurrently, and returns when all
// have finished. The first task always runs on the caller. Like
// ParallelFor, Do nests without deadlocking.
func (e *Engine) Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	if e == nil || e.workers <= 1 {
		for _, f := range fns {
			f()
		}
		return
	}
	var wg sync.WaitGroup
	for _, f := range fns[1:] {
		f := f
		wg.Add(1)
		e.offer(func() {
			defer wg.Done()
			f()
		})
	}
	fns[0]()
	wg.Wait()
}

var (
	sharedMu sync.Mutex
	shared   = map[int]*Engine{}
)

// Shared returns a process-wide engine with the given lane count (<= 0
// normalizes to GOMAXPROCS), creating it on first use. Shared engines are
// long-lived — the whole point is that repeated Decompose/PartialFit calls
// reuse one pool instead of spawning goroutine fleets per call — and must
// not be Closed.
func Shared(workers int) *Engine {
	if workers <= 0 {
		workers = 0
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	e, ok := shared[workers]
	if !ok {
		e = NewEngine(workers)
		shared[workers] = e
	}
	return e
}

// Default returns the GOMAXPROCS-sized shared engine used by package-level
// kernels (mat.Mul and friends) when no engine is threaded explicitly.
func Default() *Engine { return Shared(0) }
