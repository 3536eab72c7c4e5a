package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"imrdmd/internal/stream"
)

// metricDef declares one reported metric. The tables below are the
// benchmark's contract: BENCHMARK.json lists the same names and units
// (bench_test.go checks that the two agree), an untraced run reports
// exactly endToEnd and a traced run exactly perLayer.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the service or library sees. Every workload
// reports every metric: "read" is the query a client of that workload
// makes after or beside its ingests, "restore" is bringing a tenant back
// from its snapshot, and resident is the history a round ends with.
// Times and rates are scaled to the reference host speed (hostprobe.go),
// and ingest and read figures are medians over windows (run.endToEnd).
// The tails (p90, p99) are extras: on a shared host they measure the
// neighbours' CPU steal more than the program (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},             // median create+seed (or New+InitialFit) per round
	{"ingest_p50_ms", "ms"},      // per batch; open loop timed from the due time
	{"ingest_cols_per_s", "1/s"}, // columns absorbed per second the writer was busy
	{"read_p50_ms", "ms"},
	{"reads_per_s", "1/s"}, // reads per second the reader was busy
	{"restore_ms", "ms"},   // median snapshot restore (PUT or imrdmd.Restore)
	{"resident_mib", "MiB"},
}

// perLayer is what the traced run reports: spans recorded around calls
// into each layer's public functions, a replay of one round's request
// bodies through stream → core, and probes of the kernels at the
// workload's shapes. README.md names the end-to-end metric each should
// move.
var perLayer = []metricDef{
	{"server.ingest_handler_ms", "ms"},
	{"server.transport_ms", "ms"}, // ingest round trip − handler span
	{"server.read_handler_us", "us"},
	{"server.read_transport_us", "us"},
	{"server.not_modified_ratio", "ratio"},
	{"server.read_body_bytes", "bytes"},
	{"stream.json_decode_ms", "ms"},
	{"stream.json_decode_mb_per_s", "MB/s"},
	{"stream.csv_decode_mb_per_s", "MB/s"},
	{"core.initial_fit_ms", "ms"},
	{"core.partial_fit_ms", "ms"},
	{"core.partial_fit_p90_ms", "ms"},
	{"core.allocs_per_batch", "count"},
	{"core.bytes_per_batch", "bytes"},
	{"core.view_ms", "ms"},
	{"core.grid_samples_per_batch", "count"},
	{"core.recon_rel_err", "ratio"}, // ‖X−X̂‖_F/‖X‖_F of the round's final state
	{"svd.update_block_ms", "ms"},
	{"svd.window_svd_ms", "ms"},
	{"dmd.from_svd_ms", "ms"},
	{"mat.proj_gflops", "GFLOP/s"},
	{"compute.ws_hit_ratio", "ratio"},
	{"codec.snapshot_mib", "MiB"},
	{"codec.decode_ms", "ms"},
	{"loadgen.late_p90_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.handler_coverage_pct", "%"},
	{"bench.host_factor", "ratio"}, // host probe time over its reference (hostprobe.go)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// assemble picks the declared metrics out of everything a run measured.
// A declared metric the run did not measure, or measured as NaN or ±Inf,
// is an error: the run failed to produce its result.
func assemble(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// pct returns the nearest-rank q-quantile of ds in units of unit, with
// the same rank convention as the served ingest_p50/p99 stats; NaN when
// ds is empty, so that assemble rejects a metric nothing measured.
func pct(ds []time.Duration, q float64, unit time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(stream.Quantile(s, q)) / float64(unit)
}

// rate returns operations per second of the time the operations ds took
// (NaN when they took none).
func rate(ds []time.Duration) float64 {
	var busy time.Duration
	for _, d := range ds {
		busy += d
	}
	if busy <= 0 {
		return math.NaN()
	}
	return float64(len(ds)) / busy.Seconds()
}

// medianF returns the median of xs (NaN when empty).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// statistics.quantiles: j = k·(n+1)//4 clamped to [1, n−1],
		// δ = k·(n+1) − 4j, value = (s[j−1]·(4−δ) + s[j]·δ)/4.
		j := k * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
