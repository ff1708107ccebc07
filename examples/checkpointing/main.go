// Checkpointing: a production concern the paper's setting implies —
// streams are unbounded, so learners must survive process restarts.
// This example shows the two layers of the unified persistence API:
//
//  1. Model checkpoints: repro.Save writes ANY registered model as a
//     self-describing envelope and repro.Load reconstructs it without
//     the caller naming a type. A save → load → continue run is
//     byte-identical to a run that never stopped (the checkpoint
//     carries sufficient statistics, detector windows and RNG state).
//  2. Experiment resume: eval cells persist their results per cell, so
//     an interrupted experiment grid restarts without redoing finished
//     work (the same mechanism behind dmtbench -checkpoint -resume).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	modelCheckpointDemo()
	runnerResumeDemo()
}

// modelCheckpointDemo trains two models mid-stream, checkpoints them
// through the registry-wide API, restores them in a "new process" and
// verifies the resumed runs match uninterrupted ones exactly.
func modelCheckpointDemo() {
	const samples = 60_000
	// The unified API is model-agnostic: the same code checkpoints the
	// DMT and an ensemble (or any of the other registered learners).
	for _, name := range []string{"DMT", "Forest Ens."} {
		ckptPath := filepath.Join(os.TempDir(), "repro-checkpoint.ckpt")

		// --- Process 1: train on the first half, checkpoint, exit. ---
		gen := repro.NewSEA(samples, 0.1, 42)
		clf := repro.MustNew(name, gen.Schema(), repro.WithSeed(42))
		control := repro.MustNew(name, gen.Schema(), repro.WithSeed(42))

		half := repro.LimitStream(gen, samples/2)
		if _, err := repro.Prequential(clf, half, repro.EvalOptions{}); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.Save(f, clf); err != nil { // any registered model
			log.Fatal(err)
		}
		f.Close()
		info, _ := os.Stat(ckptPath)
		fmt.Printf("%-12s checkpointed after %d instances (%d bytes)\n", name, samples/2, info.Size())

		// --- Process 2: restore and continue on the second half. The
		// envelope names the model, so Load needs no type from us. ---
		f, err = os.Open(ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		restored, err := repro.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// gen continues where the first half stopped.
		resResumed, err := repro.Prequential(restored, gen, repro.EvalOptions{})
		if err != nil {
			log.Fatal(err)
		}

		// --- Control: the same model, never interrupted. ---
		gen2 := repro.NewSEA(samples, 0.1, 42)
		if _, err := repro.Prequential(control, gen2, repro.EvalOptions{}); err != nil {
			log.Fatal(err)
		}

		// The resumed model is byte-identical to the uninterrupted one:
		// same predictions everywhere, same complexity.
		probe := repro.NewSEA(2_000, 0, 7)
		diverged := 0
		for {
			inst, err := probe.Next()
			if err != nil {
				break
			}
			if restored.Predict(inst.X) != control.Predict(inst.X) {
				diverged++
			}
		}
		f1, _ := resResumed.F1()
		sameComplexity := restored.Complexity() == control.Complexity()
		fmt.Printf("%-12s second-half F1 %.3f; resumed vs uninterrupted: %d diverging predictions, complexity equal: %v\n",
			name, f1, diverged, sameComplexity)
		if diverged != 0 || !sameComplexity {
			log.Fatalf("%s: the resumed model differs from the uninterrupted one", name)
		}
		os.Remove(ckptPath)
	}
}

// runnerResumeDemo interrupts an experiment grid after half its cells,
// then resumes it: completed cells load from the checkpoint directory
// instead of re-running.
func runnerResumeDemo() {
	dir, err := os.MkdirTemp("", "repro-cells-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	var cells []repro.Cell
	for _, ds := range []string{"SEA", "Hyperplane"} {
		entry, err := repro.DatasetByName(ds)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range []string{"DMT", "VFDT (MC)"} {
			cells = append(cells, repro.Cell{Dataset: entry, Model: m, Seed: repro.CellSeed(42, ds, m)})
		}
	}
	base := repro.Runner{Workers: 2, Scale: 0.01, MinBatchSize: 32, CheckpointDir: dir}

	// "First process": only half the grid finishes before the kill.
	if _, err := base.Run(context.Background(), cells[:2]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated kill after %d of %d cells (checkpoints in %s)\n", 2, len(cells), dir)

	// "Second process": resume the full grid; finished cells are loaded
	// verbatim (byte-identical results), the rest run fresh.
	resumed := base
	resumed.Resume = true
	resumed.Progress = os.Stdout
	res, err := resumed.Run(context.Background(), cells)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume complete: %d datasets evaluated\n", len(res.Results))
}
