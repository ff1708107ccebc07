package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/datasets"
)

// Suite drives the full reproduction: every selected model is evaluated
// prequentially on every selected stream, and the collected results
// regenerate the paper's tables and figures.
type Suite struct {
	// Scale shrinks every Table I stream to Scale * its original length
	// (1 reproduces the full sizes; CI-sized runs use e.g. 0.02).
	Scale float64
	// Seed fixes streams and models.
	Seed int64
	// BatchFraction is the prequential batch size (paper: 0.001).
	BatchFraction float64
	// MinBatchSize floors the batch size on scaled-down streams so
	// per-batch F1 stays measurable (default 32; irrelevant at full
	// scale where the paper's batches are 45-1025 rows anyway).
	MinBatchSize int
	// Datasets and Models select subsets (nil = all).
	Datasets []string
	Models   []string
	// Parallel runs up to this many (stream, model) evaluations
	// concurrently (default 1). Each run owns its stream and classifier,
	// so results are identical to the sequential order — this implements
	// the parallelisation the paper defers to future work (Section V-D).
	Parallel int
	// Serve evaluates every cell through the serving layer (see
	// Runner.Serve).
	Serve bool
	// CheckpointDir persists every finished cell's result for resume
	// (see Runner.CheckpointDir); Resume skips cells already completed
	// there.
	CheckpointDir string
	Resume        bool
	// Progress, when non-nil, receives one line per finished run.
	Progress io.Writer
}

func (s Suite) withDefaults() Suite {
	if s.Scale <= 0 || s.Scale > 1 {
		s.Scale = 1
	}
	if s.BatchFraction <= 0 {
		s.BatchFraction = 0.001
	}
	if s.MinBatchSize < 1 {
		s.MinBatchSize = 32
	}
	if len(s.Datasets) == 0 {
		s.Datasets = datasets.Names()
	}
	if len(s.Models) == 0 {
		s.Models = AllModels()
	}
	if s.Parallel < 1 {
		s.Parallel = 1
	}
	return s
}

// SuiteResult holds every prequential run of a suite.
type SuiteResult struct {
	Suite   Suite
	Entries []datasets.Entry
	// Results[dataset][model]
	Results map[string]map[string]Result
}

// Cells expands the suite into its experiment cells (every selected model
// on every selected stream, all sharing the suite seed — the paper's
// protocol, where every model sees the identical stream).
func (s Suite) Cells() ([]Cell, error) {
	s = s.withDefaults()
	var cells []Cell
	for _, dsName := range s.Datasets {
		entry, err := datasets.ByName(dsName)
		if err != nil {
			return nil, err
		}
		for _, modelName := range s.Models {
			cells = append(cells, Cell{Dataset: entry, Model: modelName, Seed: s.Seed})
		}
	}
	return cells, nil
}

// Run executes the suite, sequentially or with Parallel workers.
func (s Suite) Run() (*SuiteResult, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the suite under a context: cancellation stops the
// in-flight cells at their next iteration and returns the completed
// cells together with ctx.Err(). Every cell builds its own stream and
// classifier from the suite seed, so the results are identical
// regardless of the degree of parallelism.
func (s Suite) RunContext(ctx context.Context) (*SuiteResult, error) {
	s = s.withDefaults()
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	r := Runner{
		Workers:       s.Parallel,
		Scale:         s.Scale,
		BatchFraction: s.BatchFraction,
		MinBatchSize:  s.MinBatchSize,
		Serve:         s.Serve,
		CheckpointDir: s.CheckpointDir,
		Resume:        s.Resume,
		Progress:      s.Progress,
	}
	out, err := r.Run(ctx, cells)
	if out != nil {
		out.Suite = s
	}
	return out, err
}

// driftDatasets are the Table I streams with known concept drift, used by
// the paper for the second Table VI category.
var driftDatasets = map[string]bool{
	"TueEyeQ": true, "Insects-Abr.": true, "Insects-Inc.": true,
	"SEA": true, "Agrawal": true, "Hyperplane": true,
}

// metricCell renders one model/dataset cell plus the paper reference.
func (r *SuiteResult) metricCell(entry datasets.Entry, modelName string,
	get func(Result) (float64, float64), paper map[string]float64, decimals int) string {
	res, ok := r.Results[entry.Name][modelName]
	if !ok {
		return "-"
	}
	mean, std := get(res)
	cell := fmtMS(mean, std, decimals)
	if ref, ok := paper[modelName]; ok {
		cell += fmt.Sprintf(" (p:%.*f)", decimals, ref)
	}
	return cell
}

// metricTable renders one paper table: models as rows, data sets as
// columns, a rightmost cross-data-set mean, and the paper's reported
// value in parentheses.
func (r *SuiteResult) metricTable(title string, models []string,
	get func(Result) (float64, float64), paper func(datasets.Entry) map[string]float64, decimals int) string {

	header := []string{"Model"}
	for _, e := range r.Entries {
		header = append(header, e.DisplayName())
	}
	header = append(header, "Mean")
	t := newTable(title, header...)
	for _, m := range models {
		row := []string{m}
		var sum float64
		var count int
		for _, e := range r.Entries {
			row = append(row, r.metricCell(e, m, get, paper(e), decimals))
			if res, ok := r.Results[e.Name][m]; ok {
				mean, _ := get(res)
				sum += mean
				count++
			}
		}
		meanCell := "-"
		if count > 0 {
			meanCell = fmt.Sprintf("%.*f", decimals, sum/float64(count))
		}
		row = append(row, meanCell)
		t.addRow(row...)
	}
	return t.render()
}

// Table1 renders the data set inventory of Table I.
func (r *SuiteResult) Table1() string {
	t := newTable("Table I: Data sets ('*' marks surrogates; see the internal/datasets package doc)",
		"Name", "#Samples", "#Features", "#Classes", "#Majority", "Drift")
	for _, e := range r.Entries {
		maj := "-"
		if e.MajorityCount > 0 {
			maj = fmt.Sprintf("%d (%.1f%%)", e.MajorityCount, 100*e.MajorityShare())
		}
		t.addRow(e.DisplayName(), fmt.Sprintf("%d", e.Samples), fmt.Sprintf("%d", e.Features),
			fmt.Sprintf("%d", e.Classes), maj, e.DriftNote)
	}
	return t.render()
}

// Table2 renders the F1 table (Table II; paper values in parentheses).
func (r *SuiteResult) Table2() string {
	return r.metricTable("Table II: F1 measure, mean ± std over prequential iterations (p: = paper)",
		r.modelsPresent(AllModels()), Result.F1,
		func(e datasets.Entry) map[string]float64 { return e.PaperF1 }, 2)
}

// Table3 renders the number-of-splits table (Table III).
func (r *SuiteResult) Table3() string {
	return r.metricTable("Table III: No. of splits, mean ± std (p: = paper)",
		r.modelsPresent(TreeModels()), Result.Splits,
		func(e datasets.Entry) map[string]float64 { return e.PaperSplits }, 1)
}

// Table4 renders the number-of-parameters table (Table IV).
func (r *SuiteResult) Table4() string {
	return r.metricTable("Table IV: No. of parameters, mean ± std (p: = paper)",
		r.modelsPresent(TreeModels()), Result.Params,
		func(e datasets.Entry) map[string]float64 { return e.PaperParams }, 0)
}

// Table5 renders the computation-time table (Table V): the mean and std of
// one test/train iteration across all data sets.
func (r *SuiteResult) Table5() string {
	t := newTable("Table V: Computation time per test/train iteration in seconds",
		"Model", "Seconds (mean ± std)")
	for _, m := range r.modelsPresent(StandaloneModels()) {
		var all []float64
		for _, e := range r.Entries {
			if res, ok := r.Results[e.Name][m]; ok {
				all = append(all, res.Series(func(s IterStats) float64 { return s.Seconds })...)
			}
		}
		var mean, std float64
		if len(all) > 0 {
			var sum float64
			for _, v := range all {
				sum += v
			}
			mean = sum / float64(len(all))
			var m2 float64
			for _, v := range all {
				m2 += (v - mean) * (v - mean)
			}
			std = math.Sqrt(m2 / float64(len(all)))
		}
		t.addRow(m, fmtMS(mean, std, 4))
	}
	return t.render()
}

// categoryMeans computes, per model: overall F1, F1 on known-drift
// streams, mean splits, and mean seconds.
func (r *SuiteResult) categoryMeans(models []string) (overall, drift, splits, seconds []float64) {
	for _, m := range models {
		var f1All, f1Drift, spl, sec []float64
		for _, e := range r.Entries {
			res, ok := r.Results[e.Name][m]
			if !ok {
				continue
			}
			f1, _ := res.F1()
			f1All = append(f1All, f1)
			if driftDatasets[e.Name] {
				f1Drift = append(f1Drift, f1)
			}
			sp, _ := res.Splits()
			spl = append(spl, sp)
			sc, _ := res.Seconds()
			sec = append(sec, sc)
		}
		overall = append(overall, meanOf(f1All))
		drift = append(drift, meanOf(f1Drift))
		splits = append(splits, meanOf(spl))
		seconds = append(seconds, meanOf(sec))
	}
	return overall, drift, splits, seconds
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Table6 renders the experiment summary (Table VI) with the paper's
// ++/+/-/-- methodology over the four categories.
func (r *SuiteResult) Table6() string {
	models := r.modelsPresent(StandaloneModels())
	overall, drift, splits, seconds := r.categoryMeans(models)
	symOverall := rankSymbols(overall, true)
	symDrift := rankSymbols(drift, true)
	symSplits := rankSymbols(splits, false)
	symSeconds := rankSymbols(seconds, false)

	t := newTable("Table VI: Experiment summary (++ best, -- worst, +/- vs median)",
		"Model", "Overall Pred. Performance", "Pred. Performance For Known Drift",
		"Complexity/Interpretability", "Computational Efficiency")
	for i, m := range models {
		t.addRow(m, symOverall[i], symDrift[i], symSplits[i], symSeconds[i])
	}
	return t.render()
}

// modelsPresent filters a model list to those that actually ran.
func (r *SuiteResult) modelsPresent(models []string) []string {
	var out []string
	for _, m := range models {
		for _, e := range r.Entries {
			if _, ok := r.Results[e.Name][m]; ok {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// figure3Datasets are the four panels of Figure 3.
var figure3Datasets = []string{"Hyperplane", "SEA", "Insects-Inc.", "TueEyeQ"}

// Figure3 renders, for each Figure 3 panel present in the results, the
// sliding-window (w=20) F1 and log number-of-splits series: an ASCII
// chart plus a CSV block for external plotting.
func (r *SuiteResult) Figure3(window int) string {
	if window <= 0 {
		window = 20
	}
	var sb strings.Builder
	for _, ds := range figure3Datasets {
		byModel, ok := r.Results[ds]
		if !ok {
			continue
		}
		models := r.modelsPresent(StandaloneModels())
		var f1Series, splitSeries [][]float64
		var names []string
		for _, m := range models {
			res, ok := byModel[m]
			if !ok {
				continue
			}
			names = append(names, m)
			f1Series = append(f1Series, SlidingMean(res.Series(func(s IterStats) float64 { return s.F1 }), window))
			logSplits := res.Series(func(s IterStats) float64 { return math.Log(math.Max(s.Splits, 1)) })
			splitSeries = append(splitSeries, SlidingMean(logSplits, window))
		}
		if len(names) == 0 {
			continue
		}
		entry, _ := datasets.ByName(ds)
		sb.WriteString(asciiChart(fmt.Sprintf("Figure 3: %s — F1 (sliding window %d)", entry.DisplayName(), window),
			names, f1Series, 90, 14))
		sb.WriteString(asciiChart(fmt.Sprintf("Figure 3: %s — log No. of Splits (sliding window %d)", entry.DisplayName(), window),
			names, splitSeries, 90, 14))
		sb.WriteString(figureCSV(ds, names, f1Series, splitSeries))
		sb.WriteString("\n")
	}
	return sb.String()
}

// figureCSV emits the raw series as CSV for external plotting.
func figureCSV(ds string, names []string, f1, splits [][]float64) string {
	var sb strings.Builder
	sb.WriteString("csv: dataset,iter")
	for _, n := range names {
		sb.WriteString(",f1:" + n + ",logsplits:" + n)
	}
	sb.WriteString("\n")
	iters := len(f1[0])
	step := maxInt(iters/50, 1) // cap csv rows for readability
	for i := 0; i < iters; i += step {
		fmt.Fprintf(&sb, "csv: %s,%d", ds, i)
		for s := range names {
			fmt.Fprintf(&sb, ",%.4f,%.4f", f1[s][i], splits[s][i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Figure4 renders the predictive-performance versus complexity scatter of
// Figure 4: one point per (model, data set).
func (r *SuiteResult) Figure4() string {
	t := newTable("Figure 4: Avg F1 vs avg log(No. of Splits), one row per (model, data set)",
		"Model", "Data set", "Avg F1", "Avg log(splits)")
	models := r.modelsPresent(StandaloneModels())
	var pts [][]float64
	var names []string
	for _, m := range models {
		var xs, ys []float64
		for _, e := range r.Entries {
			res, ok := r.Results[e.Name][m]
			if !ok {
				continue
			}
			f1, _ := res.F1()
			sp, _ := res.Splits()
			logSp := math.Log(math.Max(sp, 1e-9))
			t.addRow(m, e.DisplayName(), fmt.Sprintf("%.3f", f1), fmt.Sprintf("%.2f", logSp))
			xs = append(xs, logSp)
			ys = append(ys, f1)
		}
		if len(xs) > 0 {
			pts = append(pts, []float64{meanOf(xs), meanOf(ys)})
			names = append(names, m)
		}
	}
	var sb strings.Builder
	sb.WriteString(t.render())
	sb.WriteString("\nPer-model centroids (avg over data sets):\n")
	for i, m := range names {
		sb.WriteString(fmt.Sprintf("  %-12s avg log(splits)=%6.2f  avg F1=%.3f\n", m, pts[i][0], pts[i][1]))
	}
	return sb.String()
}
