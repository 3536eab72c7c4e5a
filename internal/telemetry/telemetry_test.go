package telemetry

import (
	"math"
	"testing"
	"testing/quick"

	"imrdmd/internal/joblog"
	"imrdmd/internal/mat"
)

func TestMatrixShapeAndDeterminism(t *testing.T) {
	g := NewGenerator(ThetaEnv(), 32, 1)
	a := g.Matrix(0, 100)
	if a.R != 32 || a.C != 100 {
		t.Fatalf("shape %dx%d want 32x100", a.R, a.C)
	}
	g2 := NewGenerator(ThetaEnv(), 32, 1)
	b := g2.Matrix(0, 100)
	if d := mat.Sub(a, b).FrobNorm(); d != 0 {
		t.Fatalf("same seed differs by %g", d)
	}
	g3 := NewGenerator(ThetaEnv(), 32, 2)
	c := g3.Matrix(0, 100)
	if d := mat.Sub(a, c).FrobNorm(); d == 0 {
		t.Fatal("different seeds identical")
	}
}

func TestMatrixStreamConsistency(t *testing.T) {
	// Generating [0,200) in one go must equal [0,120)+[120,200).
	f := func(seed int64) bool {
		g := NewGenerator(ThetaEnv(), 8, seed)
		whole := g.Matrix(0, 200)
		split := mat.HStack(g.Matrix(0, 120), g.Matrix(120, 200))
		return mat.Sub(whole, split).FrobNorm() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTemperatureRangesPlausible(t *testing.T) {
	g := NewGenerator(ThetaEnv(), 64, 3)
	m := g.Matrix(0, 500)
	for i := range m.Data {
		v := m.Data[i]
		if v < 20 || v > 90 {
			t.Fatalf("idle Theta temperature %g outside plausible range", v)
		}
	}
}

func TestJobCouplingRaisesTemperature(t *testing.T) {
	sched := &joblog.Schedule{NumNodes: 4, Horizon: 1e6, Jobs: []joblog.Job{
		{ID: 1, Project: "p", Nodes: []int{0, 1}, Start: 0, End: 1e6},
	}}
	g := NewGenerator(ThetaEnv(), 4, 4)
	g.Schedule = sched
	m := g.Matrix(100, 600) // past the thermal ramp
	meanRow := func(i int) float64 {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		return s / float64(m.C)
	}
	busy := (meanRow(0) + meanRow(1)) / 2
	idle := (meanRow(2) + meanRow(3)) / 2
	if busy-idle < 10 {
		t.Fatalf("busy nodes only %g °C above idle, want ≳ JobHeat", busy-idle)
	}
}

func TestStalledNodeCools(t *testing.T) {
	sched := &joblog.Schedule{NumNodes: 2, Horizon: 1e6, Jobs: []joblog.Job{
		{ID: 1, Project: "p", Nodes: []int{0, 1}, Start: 0, End: 1e6},
	}}
	g := NewGenerator(ThetaEnv(), 2, 5)
	g.Schedule = sched
	g.Anomalies = []Anomaly{{Kind: StalledNode, Node: 1, Start: 0, End: 1e6}}
	m := g.Matrix(100, 400)
	var m0, m1 float64
	for _, v := range m.Row(0) {
		m0 += v
	}
	for _, v := range m.Row(1) {
		m1 += v
	}
	m0 /= float64(m.C)
	m1 /= float64(m.C)
	if m0-m1 < 10 {
		t.Fatalf("stalled node should run ≈JobHeat cooler: busy %g vs stalled %g", m0, m1)
	}
}

func TestHotNodeAnomalyRaises(t *testing.T) {
	g := NewGenerator(ThetaEnv(), 2, 6)
	g.Anomalies = []Anomaly{{Kind: HotNode, Node: 0, Start: 0, End: 1e9, Magnitude: 12}}
	m := g.Matrix(0, 300)
	var m0, m1 float64
	for _, v := range m.Row(0) {
		m0 += v
	}
	for _, v := range m.Row(1) {
		m1 += v
	}
	diff := (m0 - m1) / float64(m.C)
	if diff < 8 {
		t.Fatalf("hot node only %g above normal, want ≈12", diff)
	}
}

func TestMemErrNodeHasNoThermalSignature(t *testing.T) {
	base := NewGenerator(ThetaEnv(), 2, 7)
	with := NewGenerator(ThetaEnv(), 2, 7)
	with.Anomalies = []Anomaly{{Kind: MemErrNode, Node: 0, Start: 0, End: 1e9}}
	a := base.Matrix(0, 200)
	b := with.Matrix(0, 200)
	if d := mat.Sub(a, b).FrobNorm(); d != 0 {
		t.Fatalf("memory-error anomaly changed temperatures by %g", d)
	}
}

func TestAnomalyWindowRespected(t *testing.T) {
	g := NewGenerator(ThetaEnv(), 1, 8)
	g.Anomalies = []Anomaly{{Kind: HotNode, Node: 0, Start: 1000, End: 2000, Magnitude: 20}}
	dt := g.Profile.SampleInterval
	before := g.Matrix(0, int(1000/dt))
	clean := NewGenerator(ThetaEnv(), 1, 8).Matrix(0, int(1000/dt))
	if d := mat.Sub(before, clean).FrobNorm(); d != 0 {
		t.Fatal("anomaly leaked before its start time")
	}
}

func TestProfilesDiffer(t *testing.T) {
	theta, gpu := ThetaEnv(), PolarisGPU()
	if theta.SampleInterval <= gpu.SampleInterval {
		t.Fatal("GPU metrics should sample faster than environment logs")
	}
	if gpu.FastAmp <= theta.FastAmp {
		t.Fatal("GPU profile should carry more fast-band energy")
	}
}

func TestHashNoiseMoments(t *testing.T) {
	var sum, sum2 float64
	n := 50000
	for i := 0; i < n; i++ {
		v := hashNoise(12345, i)
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sum2/float64(n) - mean*mean)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("noise mean %g not ≈0", mean)
	}
	if math.Abs(std-1) > 0.05 {
		t.Fatalf("noise std %g not ≈1", std)
	}
}
