package eval

import (
	"context"
	"encoding/gob"
	"errors"
	"os"
	"testing"

	"repro/internal/datasets"
)

func runnerCells(t testing.TB, seed int64) []Cell {
	t.Helper()
	var cells []Cell
	for _, ds := range []string{"SEA", "Electricity"} {
		entry, err := datasets.ByName(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []string{NameDMT, NameVFDTMC} {
			cells = append(cells, Cell{Dataset: entry, Model: m, Seed: CellSeed(seed, ds, m)})
		}
	}
	return cells
}

// The concurrent Runner is byte-identical to a sequential run of the same
// cells: per-cell seeding is scheduling-independent, so rendering the
// result tables gives the same bytes at any worker count.
func TestRunnerParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	run := func(workers int) *SuiteResult {
		res, err := Runner{Workers: workers, Scale: 0.002}.Run(context.Background(), runnerCells(t, 7))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(8)
	// Byte-level comparison over every rendered metric table (timing in
	// Table V is excluded: wall-clock is not schedule-independent).
	for name, render := range map[string]func(*SuiteResult) string{
		"Table2": (*SuiteResult).Table2,
		"Table3": (*SuiteResult).Table3,
		"Table4": (*SuiteResult).Table4,
		"Table6": (*SuiteResult).Table6,
	} {
		if a, b := render(seq), render(par); a != b {
			t.Fatalf("%s differs between sequential and parallel runs:\n%s\nvs\n%s", name, a, b)
		}
	}
}

// CellSeed is deterministic, and distinct cells get distinct seeds.
func TestCellSeed(t *testing.T) {
	a := CellSeed(7, "SEA", "DMT")
	if a != CellSeed(7, "SEA", "DMT") {
		t.Fatal("CellSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, ds := range []string{"SEA", "Electricity", "Hyperplane"} {
		for _, m := range []string{"DMT", "VFDT (MC)", "EFDT"} {
			s := CellSeed(7, ds, m)
			key := ds + "/" + m
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
	// The name boundary matters: ("AB","C") and ("A","BC") must differ.
	if CellSeed(7, "AB", "C") == CellSeed(7, "A", "BC") {
		t.Fatal("boundary-ambiguous cell seeds")
	}
	// Derived seeds stay non-negative even for negative bases (several
	// generators treat the seed as an offset).
	if s := CellSeed(-42, "SEA", "DMT"); s < 0 {
		t.Fatalf("CellSeed(-42, ...) = %d, want non-negative", s)
	}
}

// An unknown model inside a cell fails the whole run with that error.
func TestRunnerUnknownModel(t *testing.T) {
	entry, err := datasets.ByName("SEA")
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{{Dataset: entry, Model: "nope", Seed: 1}}
	if _, err := (Runner{Scale: 0.001}).Run(context.Background(), cells); err == nil {
		t.Fatal("unknown model must fail the run")
	}
}

// A cancelled context aborts the run with context.Canceled but keeps
// the merged result of the cells completed so far (an interrupted grid
// must not throw away finished work).
func TestRunnerCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := (Runner{Scale: 0.001}).Run(ctx, runnerCells(t, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run dropped the completed-cell results")
	}
}

// benchmarkRunner measures a fixed cell grid at a given worker count.
func benchmarkRunner(b *testing.B, workers int) {
	cells := runnerCells(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Runner{Workers: workers, Scale: 0.01}).Run(context.Background(), cells); err != nil {
			b.Fatal(err)
		}
	}
}

// The acceptance pair: on a multi-core machine the parallel suite beats
// the sequential wall-clock (compare ns/op of these two).
func BenchmarkSuiteSequential(b *testing.B) { benchmarkRunner(b, 1) }
func BenchmarkSuiteParallel(b *testing.B)   { benchmarkRunner(b, 0) } // GOMAXPROCS workers

// Evaluating through the serving layer must not change the science: a
// Serve run (per-batch publish) renders byte-identical metric tables to
// the bare-classifier run of the same cells, even though it scores
// every test batch through PredictBatch against a published snapshot.
func TestRunnerScorerModesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	run := func(serve bool) *SuiteResult {
		res, err := Runner{Scale: 0.002, Serve: serve}.Run(context.Background(), runnerCells(t, 11))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bare, through := run(false), run(true)
	for name, render := range map[string]func(*SuiteResult) string{
		"Table2": (*SuiteResult).Table2,
		"Table3": (*SuiteResult).Table3,
		"Table4": (*SuiteResult).Table4,
	} {
		if a, b := render(bare), render(through); a != b {
			t.Fatalf("%s differs between bare and Serve runs:\n%s\nvs\n%s", name, a, b)
		}
	}
}

// A cell file written by a build that still had the "locked" and
// "sharded" scorer modes must not resume: file names do not encode the
// mode and gob drops fields the destination lacks, so a sharded result
// would otherwise load as a bare one. A legacy file of a bare or
// snapshot run still resumes.
func TestRunnerResumeRejectsRetiredScorerModes(t *testing.T) {
	// legacyConfig is cellConfig as those builds wrote it.
	type legacyConfig struct {
		Dataset       string
		Model         string
		Seed          int64
		Scale         float64
		BatchFraction float64
		MinBatchSize  int
		ScorerMode    string
		Shards        int
	}
	type legacyCheckpoint struct {
		Config legacyConfig
		Result Result
	}
	cell := runnerCells(t, 5)[0]
	planted := Result{Model: cell.Model, Dataset: cell.Dataset.Name, Iters: []IterStats{{F1: -1}}}
	for _, tc := range []struct {
		mode   string
		serve  bool
		resume bool
	}{
		{"sharded", false, false},
		{"sharded", true, false},
		{"locked", false, false},
		{"locked", true, false},
		{"", false, true},
		{"snapshot", true, true},
	} {
		r := Runner{Scale: 0.002, Serve: tc.serve, CheckpointDir: t.TempDir(), Resume: true}
		f, err := os.Create(r.cellFile(cell))
		if err != nil {
			t.Fatal(err)
		}
		cfg := legacyConfig{
			Dataset: cell.Dataset.Name, Model: cell.Model, Seed: cell.Seed, Scale: 0.002,
			ScorerMode: tc.mode, Shards: 2,
		}
		if err := gob.NewEncoder(f).Encode(legacyCheckpoint{Config: cfg, Result: planted}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		res, err := r.Run(context.Background(), []Cell{cell})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Results[cell.Dataset.Name][cell.Model]
		if resumed := len(got.Iters) == 1 && got.Iters[0].F1 == -1; resumed != tc.resume {
			t.Fatalf("legacy %q cell under Serve=%v: resumed = %v, want %v", tc.mode, tc.serve, resumed, tc.resume)
		}
	}
}
