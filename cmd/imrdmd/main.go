// Command imrdmd runs the I-mrDMD pipeline on a sensor CSV (one row per
// sensor, as produced by loggen): initial fit on the first -initial
// columns, streamed partial fits in -batch column blocks, then writes the
// reconstruction, spectrum and baseline z-scores.
//
// Example:
//
//	imrdmd -in data/env.csv -dt 20 -levels 6 -initial 1000 -batch 500 -out results
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"imrdmd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("imrdmd: ")
	var (
		in       = flag.String("in", "", "input sensor CSV (required)")
		dt       = flag.Float64("dt", 1, "sampling interval (seconds)")
		levels   = flag.Int("levels", 6, "max mrDMD levels")
		cycles   = flag.Int("cycles", 2, "max slow-mode cycles per window")
		svht     = flag.Bool("svht", true, "use SVHT rank truncation")
		rank     = flag.Int("rank", 0, "fixed SVD rank (0 = automatic)")
		initial  = flag.Int("initial", 0, "initial-fit columns (0 = half the data)")
		batch    = flag.Int("batch", 0, "partial-fit batch columns (0 = no streaming)")
		baseLo   = flag.Float64("baseline-lo", 46, "baseline mean lower bound")
		baseHi   = flag.Float64("baseline-hi", 57, "baseline mean upper bound")
		workers  = flag.Int("workers", 0, "compute-engine worker lanes (0 = GOMAXPROCS)")
		blkCols  = flag.Int("block-columns", 8, "incremental-SVD block-column width (1 = column at a time, 0 = one block per batch)")
		driftWin = flag.Int("drift-window", 0, "trailing slow-grid columns compared for drift (0 = full grid, bit-stable)")
		ampWin   = flag.Int("amp-window", 0, "trailing slow-grid columns used by the level-1 amplitude refit (0 = full width)")
		coldHzn  = flag.Int("cold-horizon", 0, "columns kept in float64; older history demotes to float32 (0 = never demote)")
		outDir   = flag.String("out", ".", "output directory")
	)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, `Usage: imrdmd -in data.csv [options]

Runs the I-mrDMD pipeline on a sensor CSV (one row per sensor, as
produced by loggen): initial fit on the first -initial columns, streamed
partial fits in -batch column blocks, then writes the reconstruction,
spectrum and baseline z-scores to -out.

Performance knobs and how they interact:

  -workers N         Sizes the long-lived compute-engine pool that every
                     kernel and sibling-window recursion runs on
                     (0 = GOMAXPROCS). One pool serves the whole run; it
                     bounds total goroutine fan-out.
  -block-columns W   Chunks the streaming level-1 SVD's absorption of new
                     samples: each chunk of W columns pays one residual QR
                     plus one small core SVD, so larger W amortizes
                     factorizations across a -batch. 1 = column at a time,
                     0 = whole batch as one block. Any W yields the same
                     subspace up to rank truncation; it trades per-batch
                     latency against factorization count, and each chunk
                     still parallelizes across -workers lanes.
  -drift-window K    Compares only the trailing K slow-grid columns when
                     measuring per-update level-1 drift, so the drift
                     check costs O(K) instead of O(T/stride) per batch.
                     0 (default) compares the full grid and is bit-stable
                     with prior releases.
  -amp-window W      Fits level-1 mode amplitudes against the trailing W
                     slow-grid columns instead of the whole grid. Modes
                     whose envelope has decayed below 5%% of the dominant
                     mode's inside the window are reported absent rather
                     than noise-amplified. 0 (default) = full width,
                     bit-stable.
  -cold-horizon H    Demotes raw history older than H columns from
                     float64 to float32 chunks — roughly halving resident
                     bytes per long-running stream. The streaming SVD and
                     new-window fits only ever read columns younger than
                     the horizon, so the spectrum is bit-identical; only
                     raw-history reads and the reconstruction error see
                     f32 rounding on cold columns. 0 (default) keeps
                     everything in float64.

Options:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	series, err := imrdmd.ReadSeriesCSV(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	p, t := series.Sensors(), series.Steps()
	fmt.Printf("loaded %d sensors × %d steps\n", p, t)

	init := *initial
	if init <= 0 || init > t {
		init = t
		if *batch > 0 {
			init = t / 2
		}
	}

	a, err := imrdmd.New(imrdmd.Options{
		DT: *dt, MaxLevels: *levels, MaxCycles: *cycles,
		UseSVHT: *svht, Rank: *rank, Parallel: true, Workers: *workers,
		BlockColumns: *blkCols,
		DriftWindow:  *driftWin, AmplitudeWindow: *ampWin, ColdHorizon: *coldHzn,
	})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := a.InitialFit(series.Slice(0, init)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial fit on %d steps: %v\n", init, time.Since(start).Round(time.Millisecond))

	if *batch > 0 {
		for pos := init; pos < t; {
			hi := pos + *batch
			if hi > t {
				hi = t
			}
			t0 := time.Now()
			stats, err := a.PartialFit(series.Slice(pos, hi))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("partial fit [%d,%d): %v (drift %.4g)\n",
				pos, hi, time.Since(t0).Round(time.Millisecond), stats.Drift)
			pos = hi
		}
	}
	fmt.Printf("modes=%d levels=%d reconstruction ‖err‖_F=%.4g\n",
		a.NumModes(), a.Levels(), a.ReconstructionError())

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(name string, fn func(f *os.File) error) {
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println("wrote", path)
	}
	write("recon.csv", func(f *os.File) error { return a.Reconstruction().WriteCSV(f) })
	write("spectrum.csv", func(f *os.File) error {
		w := csv.NewWriter(f)
		if err := w.Write([]string{"freq_hz", "power", "amplitude", "growth", "level"}); err != nil {
			return err
		}
		for _, pt := range a.Spectrum() {
			rec := []string{
				strconv.FormatFloat(pt.Freq, 'g', -1, 64),
				strconv.FormatFloat(pt.Power, 'g', -1, 64),
				strconv.FormatFloat(pt.Amp, 'g', -1, 64),
				strconv.FormatFloat(pt.Grow, 'g', -1, 64),
				strconv.Itoa(pt.Level),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	})

	base := imrdmd.BaselineByMeanRange(series, *baseLo, *baseHi)
	if len(base) >= 2 {
		z, err := a.ZScores(base, 0, math.Inf(1))
		if err != nil {
			log.Fatal(err)
		}
		write("zscores.csv", func(f *os.File) error {
			w := csv.NewWriter(f)
			if err := w.Write([]string{"sensor", "zscore", "class"}); err != nil {
				return err
			}
			for i, v := range z {
				rec := []string{strconv.Itoa(i), strconv.FormatFloat(v, 'g', -1, 64), imrdmd.ClassifyZ(v)}
				if err := w.Write(rec); err != nil {
					return err
				}
			}
			w.Flush()
			return w.Error()
		})
		fmt.Printf("baseline sensors: %d of %d (mean in [%.0f, %.0f])\n", len(base), p, *baseLo, *baseHi)
	} else {
		fmt.Println("baseline selection empty; skipping z-scores (adjust -baseline-lo/-baseline-hi)")
	}
}
