// Command dmtbench regenerates the paper's evaluation: Tables I-VI and
// Figures 3-4 of "Dynamic Model Tree for Interpretable Data Stream
// Learning" (ICDE 2022), plus the DMT ablation study (-ablation; the
// variants are listed in internal/eval/ablation.go). Streams marked "*"
// are surrogates for real-world data sets; the package doc of
// internal/datasets says what each imitates and why.
// Ctrl-C cancels the remaining runs.
//
// Usage:
//
//	dmtbench [-scale 0.05] [-seed 42] [-datasets SEA,Hyperplane]
//	         [-models "DMT,VFDT (MC)"] [-table all|1..6] [-figure all|3|4]
//	         [-parallel N] [-ablation]
//
// Absolute numbers depend on the scale; the paper-reported values are
// printed alongside each cell for shape comparison. -parallel fans the
// experiment cells across workers with identical results; keep it at 1
// when the Table V timings matter.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"repro"
)

func main() {
	var (
		scale     = flag.Float64("scale", 0.02, "fraction of each Table I stream to run (1 = full size)")
		seed      = flag.Int64("seed", 42, "random seed for streams and models")
		batch     = flag.Float64("batch", 0.001, "prequential batch fraction (paper: 0.001)")
		dsFlag    = flag.String("datasets", "", "comma-separated data sets (default: all 13)")
		csvPath   = flag.String("csv", "", "benchmark the selected models on a CSV file instead of the Table I grid")
		classes   = flag.Int("classes", 0, "class count of the -csv stream; > 0 streams the file lazily row by row, 0 loads it into memory and infers the count")
		modelFlag = flag.String("models", "", "comma-separated models (default: all 8)")
		table     = flag.String("table", "all", "which table to print: all,1,2,3,4,5,6,none")
		figure    = flag.String("figure", "all", "which figure to print: all,3,4,none")
		ablation  = flag.Bool("ablation", false, "also run the DMT ablation study")
		catFlag   = flag.Bool("categorical", false, "also run the categorical payoff scenario (native vs factorised splits)")
		raceFlag  = flag.Bool("race", false, "also run the model-racing scenario (fixed arms vs the racer across drift kinds, with leader timelines)")
		parallel  = flag.Int("parallel", 1, fmt.Sprintf("concurrent experiment cells (this machine: up to %d); timing in Table V is only meaningful at 1", runtime.GOMAXPROCS(0)))
		serveFlag = flag.Bool("serve", false, "evaluate every cell through the serving layer's snapshot scorer instead of the bare classifier (result-identical)")
		ckptDir   = flag.String("checkpoint", "", "directory persisting every finished cell's result (atomic per-cell files); with -resume an interrupted grid restarts without redoing completed cells")
		resume    = flag.Bool("resume", false, "skip cells already completed in the -checkpoint directory (results are byte-identical to an uninterrupted run)")
		quiet     = flag.Bool("quiet", false, "suppress per-run progress lines")
	)
	flag.Parse()

	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "dmtbench: -resume requires -checkpoint DIR")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *csvPath != "" {
		runCSV(ctx, *csvPath, *classes, splitList(*modelFlag), *seed, *batch)
		return
	}

	suite := repro.ExperimentSuite{
		Scale:         *scale,
		Seed:          *seed,
		BatchFraction: *batch,
		Datasets:      splitList(*dsFlag),
		Models:        splitList(*modelFlag),
		Parallel:      *parallel,
		Serve:         *serveFlag,
		CheckpointDir: *ckptDir,
		Resume:        *resume,
	}
	if !*quiet {
		suite.Progress = os.Stderr
	}

	fmt.Printf("dmtbench: scale=%.3g seed=%d batch=%.4g parallel=%d serve=%t\n\n", *scale, *seed, *batch, *parallel, *serveFlag)
	res, err := suite.RunContext(ctx)
	switch {
	case errors.Is(err, context.Canceled) && res != nil:
		fmt.Fprintln(os.Stderr, "dmtbench: interrupted — rendering the completed runs")
	case err != nil:
		fmt.Fprintln(os.Stderr, "dmtbench:", err)
		os.Exit(1)
	}

	want := func(sel, key string) bool { return sel == "all" || sel == key }
	if want(*table, "1") {
		fmt.Println(res.Table1())
	}
	if want(*table, "2") {
		fmt.Println(res.Table2())
	}
	if want(*table, "3") {
		fmt.Println(res.Table3())
	}
	if want(*table, "4") {
		fmt.Println(res.Table4())
	}
	if want(*table, "5") {
		fmt.Println(res.Table5())
	}
	if want(*table, "6") {
		fmt.Println(res.Table6())
	}
	if want(*figure, "3") {
		fmt.Println(res.Figure3(20))
	}
	if want(*figure, "4") {
		fmt.Println(res.Figure4())
	}

	if *catFlag {
		out, err := repro.RunCategoricalScenario(*scale, *seed, suite.Progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtbench categorical:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if *raceFlag {
		out, err := repro.RunRaceScenario(*scale, *seed, suite.Progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtbench race:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if *ablation {
		out, err := repro.RunAblation(*scale, *seed, suite.Progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtbench ablation:", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
}

// runCSV benchmarks the selected models on a CSV file stream instead of
// the Table I grid: each model runs prequentially over the same file and
// one summary row is printed per model. classes > 0 streams the file
// lazily through repro.OpenCSVStream (no whole-file materialisation);
// classes 0 loads it into memory and infers the class count.
func runCSV(ctx context.Context, path string, classes int, models []string, seed int64, batch float64) {
	var strm repro.Stream
	if classes > 0 {
		fs, err := repro.OpenCSVStream(path, classes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtbench:", err)
			os.Exit(1)
		}
		defer fs.Close()
		strm = fs
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtbench:", err)
			os.Exit(1)
		}
		mem, err := repro.ReadCSVStream(f, path, 0)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmtbench:", err)
			os.Exit(1)
		}
		strm = mem
	}
	if len(models) == 0 {
		models = repro.Models()
	}
	fmt.Printf("dmtbench: %s (%d features, %d classes)\n\n", strm.Schema().Name, strm.Schema().NumFeatures, strm.Schema().NumClasses)
	for _, name := range models {
		strm.Reset()
		clf, err := repro.New(name, strm.Schema(), repro.WithSeed(seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dmtbench: %s: %v\n", name, err)
			continue
		}
		res, err := repro.PrequentialContext(ctx, clf, strm, repro.EvalOptions{BatchFraction: batch})
		interrupted := errors.Is(err, context.Canceled)
		if err != nil && !interrupted {
			fmt.Fprintf(os.Stderr, "dmtbench: %s: %v\n", name, err)
			continue
		}
		f1m, f1s := res.F1()
		spm, _ := res.Splits()
		pm, _ := res.Params()
		tm, _ := res.Seconds()
		fmt.Printf("  %-14s F1 %.3f ± %.3f   splits %6.1f   params %7.0f   %.4fs/it\n", name, f1m, f1s, spm, pm, tm)
		if interrupted {
			fmt.Fprintln(os.Stderr, "dmtbench: interrupted")
			return
		}
	}
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
