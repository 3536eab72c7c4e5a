package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// boundDef is one metric entry of BENCHMARK.json (per-layer entries
// have no bound).
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specFile is the part of BENCHMARK.json -diff reads.
type specFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func loadSpec(path string) (specFile, error) {
	var sp specFile
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// loadRecords reads every *.json file -out wrote into dir and returns the
// metric values per workload, traced and untraced runs apart.
func loadRecords(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no *.json result files in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var recs []record
		if err := json.Unmarshal(b, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, rec := range recs {
			if rec.Smoke || !rec.Result.Correct {
				continue
			}
			key := rec.Workload
			if rec.Trace {
				key += " (traced)"
			}
			if out[key] == nil {
				out[key] = map[string][]float64{}
			}
			for name, m := range rec.Result.Metrics {
				out[key][name] = append(out[key][name], m.Value)
			}
		}
	}
	return out, nil
}

// Verdicts of a comparison.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict compares runs b against runs a of one metric. A change beyond
// the bound is better or worse; within it, unchanged. When either side's
// spread (IQR over median) is wider than the bound, the comparison is
// unresolved, unless every run of one side beats every run of the other
// by more than the bound.
func verdict(d boundDef, a, b []float64) string {
	ma, mb := medianF(a), medianF(b)
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	rel := func(x, ref float64) float64 {
		if ref == 0 {
			if x == 0 {
				return 0
			}
			return math.Inf(1)
		}
		return (x - ref) / math.Abs(ref)
	}
	change := sign * rel(mb, ma)
	if spread(a) > d.Bound || spread(b) > d.Bound {
		aLo, aHi := minMax(a)
		bLo, bHi := minMax(b)
		// Compare the worst run of one side with the best of the other.
		bWorst, aBest, bBest, aWorst := bHi, aLo, bLo, aHi
		if sign < 0 {
			bWorst, aBest, bBest, aWorst = bLo, aHi, bHi, aLo
		}
		switch {
		case sign*rel(bWorst, aBest) < -d.Bound:
			return better
		case sign*rel(bBest, aWorst) > d.Bound:
			return worse
		}
		return unresolved
	}
	switch {
	case change > d.Bound:
		return worse
	case change < -d.Bound:
		return better
	}
	return unchanged
}

// spread is a sample's IQR as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := medianF(xs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// runDiff prints one row per (workload, metric): each side's median and
// IQR, and for end-to-end metrics the verdict under BENCHMARK.json's
// bound. Per-layer metrics have no bound and get no verdict.
func runDiff(w io.Writer, specPath, dirA, dirB string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadRecords(dirA)
	if err != nil {
		return err
	}
	b, err := loadRecords(dirB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA IQR\tB median\tB IQR\tΔ\tbound\tverdict")
	row := func(wl, name, unit string, va, vb []float64, bound, v string) {
		q1a, q3a := quartiles(va)
		q1b, q3b := quartiles(vb)
		ma, mb := medianF(va), medianF(vb)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.3g\t%.6g\t%.3g\t%+.1f%%\t%s\t%s\n",
			wl, name, unit, ma, q3a-q1a, mb, q3b-q1b, 100*(mb-ma)/math.Abs(ma), bound, v)
	}
	for _, wk := range workloads {
		for _, key := range []string{wk.name, wk.name + " (traced)"} {
			ma, mb := a[key], b[key]
			if ma == nil || mb == nil {
				continue
			}
			for _, d := range sp.EndToEnd {
				if va, vb := ma[d.Name], mb[d.Name]; len(va) > 0 && len(vb) > 0 {
					row(key, d.Name, d.Unit, va, vb, fmt.Sprintf("%g", d.Bound), verdict(d, va, vb))
				}
			}
			for _, d := range sp.PerLayer {
				if va, vb := ma[d.Name], mb[d.Name]; len(va) > 0 && len(vb) > 0 {
					row(key, d.Name, d.Unit, va, vb, "-", "-")
				}
			}
		}
	}
	return tw.Flush()
}
