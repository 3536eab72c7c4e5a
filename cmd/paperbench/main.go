// Command paperbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
// for recorded paper-vs-measured results).
//
//	paperbench -exp all -scale 0.1 -out results
//
// -scale shrinks the workload dimensions (1.0 = paper-size; the default
// 0.1 finishes in minutes on a laptop). Absolute seconds differ from the
// paper's testbed; the asserted claims are the qualitative shapes.
//
// Two more flags ride along: -kernel-info prints the GEMM kernel tier,
// probed caches and derived blocking, and exits; -cpuprofile writes a
// CPU profile of the run. Performance is measured by cmd/imrdmd-bench,
// not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"imrdmd/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: all | env | gpu | table1 | case1 | case2 | fig8 | fig9 | q2 | compress")
		scale   = flag.Float64("scale", 0.1, "workload scale factor (1.0 = paper size)")
		seed    = flag.Int64("seed", 1, "workload seed")
		outDir  = flag.String("out", "results", "artifact directory")
		tsne    = flag.Bool("tsne", false, "include t-SNE in fig9 (slow)")
		check   = flag.Bool("check", true, "assert the paper's qualitative shapes")
		kinfo   = flag.Bool("kernel-info", false, "print the GEMM kernel tier, probed caches and derived blocking, and exit")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
	)
	flag.Parse()
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *kinfo {
		printKernelInfo()
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	failures := 0
	shape := func(name string, err error) {
		if err == nil {
			return
		}
		if *check {
			failures++
			fmt.Printf("SHAPE CHECK FAILED (%s): %v\n", name, err)
		} else {
			fmt.Printf("shape note (%s): %v\n", name, err)
		}
	}
	section := func(title string) {
		fmt.Printf("\n=== %s ===\n", title)
	}

	if want("env") {
		section("E1: environment-log update timing (§IV; paper: 80.580 s refit vs 14.728 s incremental)")
		res, err := bench.RunUpdateTiming("env", *scale, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("P=%d T=%d +%d points (scale %.2f)\n", res.P, res.T, res.Added, *scale)
		fmt.Printf("incremental update: %.3f s\nfull recomputation: %.3f s\nspeedup: %.2f×\n",
			res.Incremental, res.Refit, res.Speedup)
		if res.Incremental >= 0.75*res.Refit {
			shape("env", fmt.Errorf("incremental %.3fs not well below refit %.3fs", res.Incremental, res.Refit))
		}
	}

	if want("gpu") {
		section("E2: GPU-metrics update timing (§IV; paper: 59.263 s refit vs 29.945 s incremental)")
		res, err := bench.RunUpdateTiming("gpu", *scale, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("P=%d T=%d +%d points (scale %.2f)\n", res.P, res.T, res.Added, *scale)
		fmt.Printf("incremental update: %.3f s\nfull recomputation: %.3f s\nspeedup: %.2f×\n",
			res.Incremental, res.Refit, res.Speedup)
		if res.Incremental >= 0.75*res.Refit {
			shape("gpu", fmt.Errorf("incremental %.3fs not well below refit %.3fs", res.Incremental, res.Refit))
		}
	}

	if want("table1") {
		section("E3: Table I — initial vs partial fit")
		rows, err := bench.RunTable1(bench.Table1Config{Scale: *scale, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		table := bench.FormatTable1(rows)
		fmt.Print(table)
		writeArtifact(*outDir, "table1.txt", table)
		shape("table1", bench.CheckTable1Shape(rows))
	}

	if want("case1") {
		section("E4–E6: case study 1 (Figs. 3, 4, 5; paper: ‖err‖_F=3958.58, 12.49 s + 7.6 s)")
		nodes, steps := scaledDim(871, *scale), scaledDim(2000, *scale)
		res, err := bench.RunCaseStudy1(nodes, steps, *seed, *outDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("nodes=%d steps=%d\ninitial fit %.3f s, incremental update %.3f s\n",
			res.Nodes, res.Steps, res.InitialSecs, res.UpdateSecs)
		fmt.Printf("‖actual − recon‖_F = %.2f (relative %.2f%%; paper 3958.58 ≈ 5%% at paper scale)\n",
			res.FrobError, 100*res.RelError)
		fmt.Printf("z-scores: %d cold, %d near, %d warm, %d hot\n",
			res.ZSummary.NumCold, res.ZSummary.NumNear, res.ZSummary.NumWarm, res.ZSummary.NumHot)
		fmt.Printf("memory-error nodes near/below baseline: %d of %d (paper: all)\n",
			res.MemErrNearOrCold, len(res.MemErrNodes))
		listArtifacts(res.Artifacts)
		if res.RelError > 0.15 {
			shape("case1", fmt.Errorf("relative reconstruction error %.1f%% too large", 100*res.RelError))
		}
	}

	if want("case2") {
		section("E7–E8: case study 2 (Figs. 6, 7; paper: ‖err‖_F=3423.85)")
		nodes, steps := scaledDim(4392, *scale), scaledDim(1440, *scale)
		res, err := bench.RunCaseStudy2(nodes, steps, *seed, *outDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("nodes=%d steps/window=%d\n", res.Nodes, res.StepsPerWindow)
		fmt.Printf("window 1 (hot):  ‖err‖_F = %.2f, mean level %.1f °C\n", res.FrobError[0], res.HotWindowMeanLevel)
		fmt.Printf("window 2 (cool): ‖err‖_F = %.2f, mean level %.1f °C\n", res.FrobError[1], res.CoolWindowMeanLevel)
		fmt.Printf("persistent machine-check nodes: %v (paper: persistent nodes need attention)\n", res.Persistent)
		listArtifacts(res.Artifacts)
		if res.HotWindowMeanLevel <= res.CoolWindowMeanLevel {
			shape("case2", fmt.Errorf("hot window mean %.1f not above cool window %.1f",
				res.HotWindowMeanLevel, res.CoolWindowMeanLevel))
		}
		if len(res.Persistent) == 0 {
			shape("case2", fmt.Errorf("no persistent hardware-error node detected"))
		}
	}

	if want("fig8") {
		section("E9: Fig. 8 — method comparison on baseline vs non-baseline readings")
		steps := scaledDim(1000, *scale*4) // fig8 is small; keep enough steps
		res, err := bench.RunFig8(steps, *seed, *outDir)
		if err != nil {
			log.Fatal(err)
		}
		table := bench.FormatFig8(res)
		fmt.Print(table)
		writeArtifact(*outDir, "fig8_separation.txt", table)
		listArtifacts(res.Artifacts)
		// Paper: mrDMD-family z-scores separate; embeddings micro-cluster.
		if res.Separation["mrDMD"] <= 0 || res.Separation["I-mrDMD"] <= 0 {
			shape("fig8", fmt.Errorf("mrDMD-family separation not positive: %+.3f / %+.3f",
				res.Separation["mrDMD"], res.Separation["I-mrDMD"]))
		}
	}

	if want("fig9") {
		section("E10: Fig. 9 — completion time vs data size")
		rows, err := bench.RunFig9(bench.Fig9Config{Scale: *scale, Seed: *seed, WithTSNE: *tsne})
		if err != nil {
			log.Fatal(err)
		}
		table := bench.FormatFig9(rows)
		fmt.Print(table)
		writeArtifact(*outDir, "fig9_timing.txt", table)
		if path, err := bench.WriteFig9Plot(rows, *outDir); err == nil {
			listArtifacts([]string{path})
		}
		shape("fig9", bench.CheckFig9Shape(rows))
	}

	if want("q2") {
		section("E12–E13: Q2 — online vs batch accuracy, and drift-triggered recomputation")
		res, err := bench.RunQ2(scaledDim(256, *scale*4), scaledDim(4096, *scale*4), 4, *seed)
		if err != nil {
			log.Fatal(err)
		}
		table := bench.FormatQ2(res)
		fmt.Print(table)
		writeArtifact(*outDir, "q2_accuracy.txt", table)
		shape("q2", bench.CheckQ2Shape(res))
	}

	if want("compress") {
		section("E14: compression sweep (§I terabytes-to-megabytes; §VI future-work evaluation)")
		rows, err := bench.RunCompression(scaledDim(2560, *scale), scaledDim(40960, *scale), *seed)
		if err != nil {
			log.Fatal(err)
		}
		table := bench.FormatCompression(rows)
		fmt.Print(table)
		writeArtifact(*outDir, "compression.txt", table)
		shape("compress", bench.CheckCompressionShape(rows))
	}

	if failures > 0 {
		log.Fatalf("%d shape check(s) failed", failures)
	}
	fmt.Println("\nall requested experiments completed")
}

func scaledDim(v int, scale float64) int {
	s := int(float64(v) * scale)
	if s < 16 {
		s = 16
	}
	return s
}

func writeArtifact(dir, name, content string) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Println("wrote", path)
}

func listArtifacts(paths []string) {
	if len(paths) == 0 {
		return
	}
	fmt.Println("wrote", strings.Join(paths, ", "))
}
