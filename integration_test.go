package imrdmd

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"imrdmd/internal/baseline"
	"imrdmd/internal/core"
	"imrdmd/internal/hwlog"
	"imrdmd/internal/joblog"
	"imrdmd/internal/stream"
	"imrdmd/internal/telemetry"
	"imrdmd/internal/viz"
)

// TestFullPipelineIntegration exercises the whole stack end to end the
// way the paper's system runs: scheduler → telemetry → streaming I-mrDMD
// → baseline z-scores → rack view + report, with hardware-log alignment.
func TestFullPipelineIntegration(t *testing.T) {
	const nodes, steps = 128, 1024
	prof := telemetry.ThetaEnv()
	horizon := float64(steps) * prof.SampleInterval

	sched := joblog.Simulate(joblog.SimConfig{
		NumNodes: nodes, Horizon: horizon, Seed: 42,
		MeanInterarrival: horizon / 40, MeanDuration: horizon / 5,
	})
	if err := sched.Validate(); err != nil {
		t.Fatalf("scheduler invariant: %v", err)
	}

	gen := telemetry.NewGenerator(prof, nodes, 42)
	gen.Schedule = sched
	hotNode := 23
	stalledNode := 77
	gen.Anomalies = []telemetry.Anomaly{
		{Kind: telemetry.HotNode, Node: hotNode, Start: 0, End: horizon, Magnitude: 15},
		{Kind: telemetry.StalledNode, Node: stalledNode, Start: 0, End: horizon},
	}
	hl := hwlog.Generate(hwlog.GenConfig{
		NumNodes: nodes, Horizon: horizon, Seed: 42, BackgroundRate: 0.02,
		Bursts: []hwlog.Burst{{Node: hotNode, Cat: hwlog.MachineCheck, Start: 0, End: horizon, Count: 12}},
	})

	// Stream through a feeder in 128-column batches.
	inc := core.NewIncremental(core.Options{
		DT: prof.SampleInterval, MaxLevels: 5, MaxCycles: 2, UseSVHT: true, Parallel: true,
	})
	feeder, err := stream.NewFeeder(inc, 512)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < steps; t0 += 128 {
		if err := feeder.Push(gen.Matrix(t0, t0+128)); err != nil {
			t.Fatal(err)
		}
	}
	if inc.Cols() != steps || inc.Updates() != 4 {
		t.Fatalf("streamed %d columns in %d updates, want %d in 4", inc.Cols(), inc.Updates(), steps)
	}

	// Reconstruction is faithful.
	data := gen.Matrix(0, steps)
	rel := inc.ReconError() / data.FrobNorm()
	if rel > 0.12 {
		t.Fatalf("relative reconstruction error %.3f", rel)
	}

	// Z-scores flag the injected anomalies and spare the normal fleet.
	levels := inc.Tree().ReadingLevels(core.FullBand())
	baseIdx := baseline.SelectByMeanRange(data, 46, 68)
	z, err := baseline.ZScores(levels, baseIdx)
	if err != nil {
		t.Fatal(err)
	}
	if z[hotNode] < 2 {
		t.Fatalf("hot node z=%.2f, want > 2", z[hotNode])
	}
	if z[stalledNode] > -1 {
		t.Fatalf("stalled node z=%.2f, want clearly negative", z[stalledNode])
	}

	// Hardware-log alignment: the machine-check node is the hot one.
	mc := hl.NodesWith(hwlog.MachineCheck, 6, 0, horizon)
	if len(mc) != 1 || mc[0] != hotNode {
		t.Fatalf("machine-check nodes %v, want [%d]", mc, hotNode)
	}

	// Rack view renders the fleet.
	var buf bytes.Buffer
	err = RackView(&buf, "xc40 1 2 row0-0:0-1 2 c:0-3 1 s:0-15 b:0 n:0",
		"integration", z, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("rack view not rendered")
	}

	// Report stitches everything into one document.
	rep := &viz.Report{Title: "integration"}
	rep.AddFigure("rack", "z-scores", buf.String())
	var html bytes.Buffer
	if err := rep.Render(&html); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "integration") {
		t.Fatal("report missing content")
	}
}

// TestAnalyzerExtensions exercises the public future-work APIs together:
// sensor addition, compression accounting, stabilized reconstruction.
func TestAnalyzerExtensions(t *testing.T) {
	s := syntheticTemps(9, 20, 512, nil)
	a := mustNew(t, Options{DT: 1, MaxLevels: 4, MaxCycles: 2, UseSVHT: true})
	if err := a.InitialFit(s.Slice(0, 512)); err != nil {
		t.Fatal(err)
	}
	// Add four more sensors with full history.
	extra := syntheticTemps(10, 4, 512, nil)
	if err := a.AddSensors(extra); err != nil {
		t.Fatal(err)
	}
	if a.Sensors() != 24 {
		t.Fatalf("Sensors = %d want 24", a.Sensors())
	}
	if cr := a.CompressionRatio(); cr <= 0 {
		t.Fatalf("compression ratio %.2f", cr)
	}
	st := a.StabilizedReconstruction()
	if st.Sensors() != 24 || st.Steps() != 512 {
		t.Fatal("stabilized reconstruction shape wrong")
	}
	for i := 0; i < st.Sensors(); i++ {
		for _, v := range st.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("stabilized reconstruction not finite")
			}
		}
	}
}
