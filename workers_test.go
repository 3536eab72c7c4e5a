package imrdmd

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"imrdmd/internal/compute"
)

// workersTestSeries builds a multiscale synthetic signal large enough
// that the matrix kernels cross their parallel threshold.
func workersTestSeries(p, t int, seed int64) *Series {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, p*t)
	for i := 0; i < p; i++ {
		phase := rng.Float64() * 2 * math.Pi
		amp := 1 + rng.Float64()
		for k := 0; k < t; k++ {
			tt := float64(k)
			data[i*t+k] = 40 +
				5*math.Sin(tt/200+phase) +
				amp*math.Sin(tt/17+phase) +
				0.3*rng.NormFloat64()
		}
	}
	return FromDense(p, t, data)
}

// TestWorkersBoundsGoroutineCount verifies the acceptance property of the
// shared compute engine: with Options.Workers set, a full streamed
// analysis — initial fit, partial fits, drift-triggered recomputes —
// never grows the process goroutine count beyond the engine's W−1 pool
// workers, instead of spawning a fresh goroutine fleet per matrix
// multiply and per sibling window.
func TestWorkersBoundsGoroutineCount(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs GOMAXPROCS >= 4 to distinguish bounded from unbounded spawning")
	}
	const workers = 2

	series := workersTestSeries(256, 640, 9)

	baseline := runtime.NumGoroutine()
	var peak int64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() { // sampler: counts itself via baseline+1 below
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := int64(runtime.NumGoroutine())
			for {
				p := atomic.LoadInt64(&peak)
				if n <= p || atomic.CompareAndSwapInt64(&peak, p, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	a := mustNew(t, Options{
		DT: 1, MaxLevels: 5, MaxCycles: 2, UseSVHT: true,
		Parallel: true, Workers: workers,
		DriftThreshold: 1e-9,
	})
	if err := a.InitialFit(series.Slice(0, 400)); err != nil {
		t.Fatal(err)
	}
	recomputes := 0
	for pos := 400; pos < 640; pos += 80 {
		st, err := a.PartialFit(series.Slice(pos, pos+80))
		if err != nil {
			t.Fatal(err)
		}
		if st.Recomputed {
			recomputes++
		}
	}
	close(stop)
	<-sampled

	if recomputes == 0 {
		t.Fatal("the drift threshold triggered no recompute, so none ran under the bound")
	}
	// Allowed: the sampler itself, workers−1 pool goroutines, plus slack
	// for runtime-internal goroutines (GC workers, timers) that can
	// appear at any moment.
	allowed := int64(baseline + 1 + (workers - 1) + 3)
	if peak > allowed {
		t.Fatalf("goroutine peak %d exceeds allowed %d (baseline %d, workers %d): engine is not bounding concurrency",
			peak, allowed, baseline, workers)
	}
}

// TestWorkersEquivalence checks that the lane count changes scheduling
// only: a single-lane and a multi-lane analyzer over the same stream
// agree on the reconstruction.
func TestWorkersEquivalence(t *testing.T) {
	series := workersTestSeries(48, 320, 5)
	run := func(workers int) (float64, int) {
		a := mustNew(t, Options{
			DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true,
			Parallel: true, Workers: workers,
		})
		if err := a.InitialFit(series.Slice(0, 200)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.PartialFit(series.Slice(200, 320)); err != nil {
			t.Fatal(err)
		}
		return a.ReconstructionError(), a.NumModes()
	}
	err1, modes1 := run(1)
	err4, modes4 := run(4)
	if modes1 != modes4 {
		t.Fatalf("mode count differs: %d (1 worker) vs %d (4 workers)", modes1, modes4)
	}
	if math.Abs(err1-err4) > 1e-9*(1+err1) {
		t.Fatalf("reconstruction error differs: %v vs %v", err1, err4)
	}
}

// TestAnalyzerEngineFollowsWorkers: a library analyzer runs on the
// process-wide pool for its Workers value, compute.Shared(Workers), and a
// restored one on the pool its snapshot's Workers names.
func TestAnalyzerEngineFollowsWorkers(t *testing.T) {
	series := workersTestSeries(16, 96, 4)
	for _, workers := range []int{0, 2} {
		a := mustNew(t, Options{DT: 1, MaxLevels: 3, Workers: workers})
		if got := a.inc.Engine(); got != compute.Shared(workers) {
			t.Fatalf("Workers %d: analyzer runs on a %d-lane engine, not compute.Shared(%d)", workers, got.Workers(), workers)
		}
		if err := a.InitialFit(series); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := a.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		back, err := Restore(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := back.inc.Engine(); got != compute.Shared(workers) {
			t.Fatalf("Workers %d: restored analyzer runs on a %d-lane engine, not compute.Shared(%d)", workers, got.Workers(), workers)
		}
	}
}
