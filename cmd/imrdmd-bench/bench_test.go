package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json these
// tests compare the code against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		kind string
		json []boundDef
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", tc.kind, len(tc.json), len(tc.code))
		}
		for i, m := range tc.json {
			if m.Name != tc.code[i].name || m.Unit != tc.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", tc.kind, i, m.Name, m.Unit, tc.code[i].name, tc.code[i].unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", tc.kind, m.Name)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better = %q", tc.kind, m.Name, m.Better)
			}
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s [s], lower is better")
	}
}

// TestSmokeRunsEmitDeclaredMetrics runs every workload at smoke size,
// untraced and traced, through the command-line entry point: the last
// line must be a correct result holding exactly the declared metrics,
// each finite and with its unit.
func TestSmokeRunsEmitDeclaredMetrics(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--seed", "1", "--trace", []string{"0", "1"}[trace], "-smoke"}
			if code := realMain(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", w.name, trace, code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%d: %s unit %q, want %q", w.name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", w.name, trace, d.name, m.Value)
				}
			}
		}
	}
}

// TestChecksRejectWrongResults feeds each correctness check a wrong
// observation and expects the run to fail on that check.
func TestChecksRejectWrongResults(t *testing.T) {
	checks := map[string][]string{
		"sclog_stream":   {"steps", "restore", "replay"},
		"theta_wide_lib": {"steps", "restore", "recon"},
		"dashboard_mix":  {"steps", "restore", "monotone", "etag304"},
		"longrun_tiered": {"steps", "restore", "cold"},
	}
	for _, w := range workloads {
		for _, check := range checks[w.name] {
			cfg := config{seed: 1, smoke: true}
			r := newRun(w, cfg)
			r.corrupt = check
			rec, err := measure(r, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, check, err)
			}
			if rec.Result.Correct || rec.Result.Failed == 0 {
				t.Errorf("%s/%s: a wrong result passed (correct=%v failed=%d)", w.name, check, rec.Result.Correct, rec.Result.Failed)
				continue
			}
			if !strings.Contains(strings.Join(rec.Errors, "\n"), "check "+check+":") {
				t.Errorf("%s/%s: failed for another reason: %v", w.name, check, rec.Errors)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) with the default exclusive method.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.5, 1, 7, 3, 3, 9, 4}, 2.5, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestEndToEndIsMedianOverWindows: ingest and read figures are the median
// of the per-window figures, so one window stretched by a pause moves
// none of them, and the host factor divides times and multiplies rates.
func TestEndToEndIsMedianOverWindows(t *testing.T) {
	ms := func(xs ...float64) []time.Duration {
		ds := make([]time.Duration, len(xs))
		for i, x := range xs {
			ds[i] = time.Duration(x * float64(time.Millisecond))
		}
		return ds
	}
	r := &run{shape: shape{batchCols: 40}, wins: []*window{
		{lat: ms(4, 5, 6), svc: ms(4, 5, 6), read: ms(1, 1, 1), restore: ms(100)},
		{lat: ms(5, 5, 5), svc: ms(5, 5, 5), read: ms(1, 1, 100), setup: ms(30)},
		{lat: ms(4, 5, 6), svc: ms(4, 5, 6), read: ms(1, 1, 1)},
	}}
	for _, f := range []float64{1, 2} {
		got := r.endToEnd(f)
		for name, want := range map[string]float64{
			"ingest_p50_ms": 5 / f, "ingest_cols_per_s": 8000 * f,
			"read_p50_ms": 1 / f, "reads_per_s": 1000 * f,
			"restore_ms": 100 / f, "setup_s": 0.03 / f,
		} {
			if math.Abs(got[name]-want) > 1e-9*want {
				t.Errorf("f=%g: %s = %g, want %g", f, name, got[name], want)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundDef{Name: "x", Better: "lower", Bound: 0.1}
	higher := boundDef{Name: "y", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 100, 140, 80, 120}
	for _, tc := range []struct {
		d    boundDef
		a, b []float64
		want string
	}{
		{lower, base, scale(base, 1.02), unchanged},
		{lower, base, scale(base, 1.3), worse},
		{lower, base, scale(base, 0.7), better},
		{higher, base, scale(base, 0.7), worse},
		{higher, base, scale(base, 1.3), better},
		{lower, wide, scale(wide, 1.05), unresolved},
		{lower, base, scale(wide, 3), worse}, // every run of b is worse
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Better, tc.a, tc.b, got, tc.want)
		}
	}
}
