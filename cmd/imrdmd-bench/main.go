// Command imrdmd-bench is the repository's benchmark: it runs the I-mrDMD
// service and library on generated workloads, checks their outputs, and
// reports end-to-end metrics (or, traced, per-layer metrics). The load
// generator and the system run in one process; the served workloads talk
// to the in-process server over loopback TCP on at most two connections.
//
//	imrdmd-bench --workload sclog_stream --seed 1 --seconds 20 --trace 0
//	imrdmd-bench -workload all -seed 1 -out results/run1.json
//	imrdmd-bench -diff results/parent results/change
//
// Every metric is printed by name with its unit; the last line of
// standard output is the JSON result. The exit code is non-zero when a
// correctness check or an operation failed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"imrdmd/internal/server"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	smoke      bool
	out        string
	spans      string
	cpuprofile string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imrdmd-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: "+workloadNames()+" or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 20, "how long each workload measures, in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny shapes and one pass, for tests")
	fs.StringVar(&cfg.out, "out", "", "write the run records (JSON) to this file")
	fs.StringVar(&cfg.spans, "spans", "", "traced run: write every span to <dir>/<workload>.jsonl")
	fs.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write one CPU profile per workload into this directory")
	diff := fs.Bool("diff", false, "compare two directories of -out files: imrdmd-bench -diff A B")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds (-diff)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "imrdmd-bench -diff needs two directories of result files")
			return 2
		}
		if err := runDiff(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "imrdmd-bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || cfg.trace < 0 || cfg.trace > 1 || cfg.seconds < 0 {
		fmt.Fprintln(stderr, "imrdmd-bench: unexpected arguments; see -h")
		return 2
	}
	var list []*workload
	if cfg.workload == "all" {
		list = workloads
	} else if w := lookupWorkload(cfg.workload); w != nil {
		list = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "imrdmd-bench: unknown workload %q (want %s or all)\n", cfg.workload, workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := currentEnv()
	fmt.Fprintf(stdout, "env: %s\n", env)

	var records []record
	code := 0
	for _, w := range list {
		rec, err := runOne(w, cfg, env, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "imrdmd-bench:", err)
			return 1
		}
		records = append(records, rec)
		if !rec.Result.Correct {
			code = 1
		}
	}
	if cfg.out != "" {
		if err := writeJSON(cfg.out, records); err != nil {
			fmt.Fprintln(stderr, "imrdmd-bench:", err)
			return 1
		}
	}
	return code
}

// record is one workload run as -out writes it and -diff reads it.
type record struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Smoke    bool                 `json:"smoke,omitempty"`
	Options  server.TenantOptions `json:"options"`
	Env      env                  `json:"env"`
	Extras   map[string]float64   `json:"extras"`
	Errors   []string             `json:"errors,omitempty"`
	Result   result               `json:"result"`
}

// newRun prepares a run of w: the smoke shape runs exactly minRounds
// rounds, the full shape rounds until -seconds have passed.
func newRun(w *workload, cfg config) *run {
	r := &run{wl: w, seed: cfg.seed, shape: w.full, seconds: time.Duration(cfg.seconds) * time.Second}
	if cfg.smoke {
		r.shape, r.seconds = w.smoke, 0
	}
	if cfg.trace == 1 {
		r.tr = newTracer()
		r.layer = map[string]float64{}
	}
	return r
}

// runOne runs one workload and prints its metrics and result line.
func runOne(w *workload, cfg config, env env, stdout io.Writer) (record, error) {
	r := newRun(w, cfg)
	rec, err := measure(r, cfg)
	if err != nil {
		return rec, err
	}
	rec.Env = env
	printRecord(stdout, rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return rec, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return rec, nil
}

// measure generates the inputs, runs the workload (and, traced, the layer
// passes) and assembles the record. Errors returned here are the
// benchmark's own (bad flags, unwritable files); failures of the system
// under test end up in the record.
func measure(r *run, cfg config) (record, error) {
	w := r.wl
	rec := record{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: r.tr != nil, Smoke: cfg.smoke, Options: w.tenantOptions(r.shape)}
	d, err := newDataset(w, r.shape, cfg.seed)
	if err != nil {
		return rec, err
	}
	stopProfile := func() error { return nil }
	if cfg.cpuprofile != "" {
		if stopProfile, err = startProfile(cfg.cpuprofile, w.name); err != nil {
			return rec, err
		}
	}
	runErr := w.run(r, d)
	if runErr == nil && r.tr != nil {
		runErr = r.layers(d)
	}
	if err := stopProfile(); err != nil {
		return rec, err
	}
	if cfg.spans != "" && r.tr != nil {
		if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
			return rec, err
		}
		if err := r.tr.writeJSONL(filepath.Join(cfg.spans, w.name+".jsonl")); err != nil {
			return rec, err
		}
	}
	defs, values := endToEnd, r.endToEnd(r.hostFactor())
	rec.Extras = r.extras()
	if r.tr != nil {
		defs = perLayer
		for k, v := range values {
			rec.Extras[k] = v
		}
		values = r.layer
	}
	metrics, err := assemble(defs, values)
	if runErr == nil && err != nil {
		runErr = r.op(err)
	}
	if metrics == nil {
		metrics = map[string]metric{}
	}
	rec.Errors = r.errs
	rec.Result = result{
		Correct:   runErr == nil && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   metrics,
	}
	return rec, nil
}

// printRecord prints a run's metrics, one per line, before its result.
func printRecord(w io.Writer, rec record) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d (%s)\n", rec.Workload, rec.Seed, mode)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	names = names[:0]
	for n := range rec.Extras {
		if _, dup := rec.Result.Metrics[n]; !dup {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  (%s %.6g)\n", n, rec.Extras[n])
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
}

// startProfile starts a CPU profile into <dir>/<name>.pprof and returns
// the function that stops it and closes the file.
func startProfile(dir, name string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, name+".pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
