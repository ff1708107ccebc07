package eval

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/synth"
)

// ablationVariant is one DMT configuration of the ablation study (see
// RunAblation and dmtbench -ablation): each variant disables or re-tunes one design choice the
// paper motivates.
type ablationVariant struct {
	name  string
	build func(schema stream.Schema, seed int64) model.Classifier
}

func dmtVariant(name string, cfg core.Config) ablationVariant {
	return ablationVariant{
		name: name,
		build: func(schema stream.Schema, seed int64) model.Classifier {
			cfg := cfg
			cfg.Seed = seed
			return core.New(cfg, schema)
		},
	}
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		dmtVariant("DMT (paper defaults)", core.Config{}),
		dmtVariant("DMT no pruning", core.Config{DisablePruning: true}),
		dmtVariant("DMT no warm start", core.Config{DisableWarmStart: true}),
		dmtVariant("DMT no inner updates", core.Config{DisableInnerUpdates: true}),
		dmtVariant("DMT eps=1e-3 (loose)", core.Config{Epsilon: 1e-3}),
		dmtVariant("DMT eps=1e-12 (strict)", core.Config{Epsilon: 1e-12}),
		dmtVariant("DMT cand cap 1m", core.Config{CandidateFactor: 1}),
		dmtVariant("DMT cand cap 6m", core.Config{CandidateFactor: 6}),
		dmtVariant("DMT repl rate 0.1", core.Config{ReplacementRate: 0.1}),
		dmtVariant("DMT repl rate 0.9", core.Config{ReplacementRate: 0.9}),
		dmtVariant("DMT lr=0.01", core.Config{LearningRate: 0.01}),
		dmtVariant("DMT lr=0.2", core.Config{LearningRate: 0.2}),
		dmtVariant("DMT L1=0.01 (sparse)", core.Config{L1: 0.01}),
		dmtVariant("DMT lr warmup x4", core.Config{LRWarmupBoost: 4}),
	}
}

// ablationStream builds one ablation workload. "Piecewise" is the
// structure-sensitive stream (splits are necessary, so pruning,
// warm-start and inner updates become observable); the Table I names
// cover the drift and linear-control cases.
func ablationStream(name string, scale float64, seed int64) (stream.Stream, string, error) {
	if name == "Piecewise" {
		n := int(200_000 * scale * 10) // comparable to the Table I scale
		if n < 20_000 {
			n = 20_000
		}
		return synth.NewPiecewise(n, 3, 0.05, 1, seed), "Piecewise (synthetic, 1 abrupt drift)", nil
	}
	entry, err := datasets.ByName(name)
	if err != nil {
		return nil, "", err
	}
	return entry.New(scale, seed), entry.DisplayName(), nil
}

// ablationDatasets are the ablation workloads: one stream that requires
// structure, one multiclass drift stream, one linear control.
var ablationDatasets = []string{"Piecewise", "Insects-Abr.", "SEA"}

// RunAblation evaluates every DMT ablation variant on the ablation
// streams and renders one table per stream (F1, splits, prune/replace
// activity).
func RunAblation(scale float64, seed int64, progress io.Writer) (string, error) {
	var sb strings.Builder
	for _, dsName := range ablationDatasets {
		var display string
		t := newTable("", "Variant", "F1", "Splits", "Params", "split/replace/prune events")
		for _, v := range ablationVariants() {
			strm, name, err := ablationStream(dsName, scale, seed)
			if err != nil {
				return "", err
			}
			display = name
			clf := v.build(strm.Schema(), seed)
			res, err := Prequential(clf, strm, Options{MinBatchSize: 32})
			if err != nil {
				return "", fmt.Errorf("ablation: %s on %s: %w", v.name, dsName, err)
			}
			f1m, f1s := res.F1()
			spm, sps := res.Splits()
			pm, _ := res.Params()
			events := "-"
			if dmt, ok := clf.(*core.Tree); ok {
				s, r, p := dmt.Revisions()
				events = fmt.Sprintf("%d/%d/%d", s, r, p)
			}
			t.addRow(v.name, fmtMS(f1m, f1s, 3), fmtMS(spm, sps, 1), fmt.Sprintf("%.0f", pm), events)
			if progress != nil {
				fmt.Fprintf(progress, "ablation done: %-24s on %-12s F1=%.3f\n", v.name, dsName, f1m)
			}
		}
		t.title = fmt.Sprintf("Ablation (E9) on %s (scale %.3g)", display, scale)
		sb.WriteString(t.render())
		sb.WriteString("\n")
	}
	return sb.String(), nil
}
