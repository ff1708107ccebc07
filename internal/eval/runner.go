package eval

import (
	"context"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/datasets"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/serve"
)

// Cell is one experiment cell of a suite: a model evaluated prequentially
// on one stream with a fixed seed. Cells are self-contained — every cell
// builds its own stream and classifier — so a Runner can execute them in
// any order and on any number of workers without changing the results.
type Cell struct {
	Dataset datasets.Entry
	Model   string
	// Seed fixes this cell's stream and model. CellSeed derives
	// scheduling-independent per-cell seeds from a base seed.
	Seed int64
}

// CellSeed derives a deterministic per-cell seed from a base seed and the
// cell's coordinates (FNV-1a over the names, folded with the base). Two
// cells of the same suite never share streams or model initialisation,
// and the derivation does not depend on worker scheduling.
func CellSeed(base int64, dataset, model string) int64 {
	h := fnv.New64a()
	io.WriteString(h, dataset)
	io.WriteString(h, "\x00")
	io.WriteString(h, model)
	// Clear the sign bit after folding in the base so derived seeds stay
	// non-negative even for negative bases — several generators treat
	// the seed as an offset.
	return (base ^ int64(h.Sum64())) & 0x7fffffffffffffff
}

// Runner executes experiment cells concurrently. It is the engine behind
// Suite.Run and the serving-oriented replacement for driving Prequential
// by hand: cells fan out across Workers goroutines, each cell owns its
// stream and classifier, and the merged SuiteResult is byte-identical to
// a sequential run of the same cells — the parallelisation the paper
// defers to future work (Section V-D) without giving up reproducibility.
type Runner struct {
	// Workers is the degree of parallelism (<= 0: GOMAXPROCS).
	Workers int
	// Scale shrinks every stream to Scale * its original length
	// (<= 0 or > 1 means full size).
	Scale float64
	// BatchFraction is the prequential batch size (default 0.001).
	BatchFraction float64
	// MinBatchSize floors the batch size; it is passed to Options as is,
	// so 0 gets the Options default of 1 (Suite's default is 32).
	MinBatchSize int
	// Serve evaluates every cell through serve.New — the snapshot scorer
	// repro.Serve and dmtserve use — instead of the bare classifier.
	// Per-batch publish keeps the results byte-identical to the bare
	// model.
	Serve bool
	// CheckpointDir, when non-empty, persists every finished cell's
	// Result to one file per cell in that directory (written atomically:
	// temp file + rename, so a kill mid-write never leaves a corrupt
	// cell). Combined with Resume, an interrupted grid restarts without
	// redoing completed work.
	CheckpointDir string
	// Resume loads matching cell files from CheckpointDir instead of
	// re-running those cells. Cells are deterministic in (dataset,
	// model, seed, scale, batching, serving), so a resumed grid is
	// byte-identical to an uninterrupted run of the same configuration
	// — loaded cells verbatim (including their recorded timings), re-run
	// cells by determinism. Files whose configuration does not match are
	// ignored and the cell re-runs.
	Resume bool
	// Progress, when non-nil, receives one line per finished cell.
	Progress io.Writer
}

func (r Runner) workers(cells int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run evaluates every cell and merges the results into a SuiteResult.
// The first cell failure cancels the remaining cells via the derived
// context and returns (nil, that error). A cancelled parent context
// returns the cells completed so far together with ctx.Err(), so a long
// interrupted grid keeps its finished work.
func (r Runner) Run(ctx context.Context, cells []Cell) (*SuiteResult, error) {
	scale := r.Scale
	if scale <= 0 || scale > 1 {
		scale = 1
	}

	out := &SuiteResult{Results: map[string]map[string]Result{}}
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Dataset.Name] {
			seen[c.Dataset.Name] = true
			out.Entries = append(out.Entries, c.Dataset)
			out.Results[c.Dataset.Name] = map[string]Result{}
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex // guards Results and Progress
		failOnce sync.Once  // guards the first-error capture and the cancel
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan Cell)
	)
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	if r.CheckpointDir != "" {
		if err := os.MkdirAll(r.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("eval: create checkpoint dir: %w", err)
		}
	}
	if r.CheckpointDir != "" && r.Resume {
		// Resume pass: cells whose stored result matches this run's
		// configuration are taken verbatim and never dispatched.
		var remaining []Cell
		for _, c := range cells {
			res, ok := r.loadCell(c, scale)
			if !ok {
				remaining = append(remaining, c)
				continue
			}
			out.Results[c.Dataset.Name][c.Model] = res
			if r.Progress != nil {
				f1, _ := res.F1()
				fmt.Fprintf(r.Progress, "resumed: %-12s on %-14s F1=%.3f iters=%d (checkpoint)\n",
					c.Model, c.Dataset.DisplayName(), f1, len(res.Iters))
			}
		}
		cells = remaining
	}

	runCell := func(c Cell) error {
		strm := c.Dataset.New(scale, c.Seed)
		var clf model.Classifier
		var err error
		if r.Serve {
			// The registry-driven serving path: the same construction
			// cmd/dmtbench and repro.Serve use, so the suite exercises
			// the serving layer end to end.
			clf, err = serve.New(serve.Config{
				Model:   c.Model,
				Schema:  strm.Schema(),
				Options: []registry.Option{registry.WithSeed(c.Seed)},
			})
		} else {
			clf, err = NewClassifier(c.Model, strm.Schema(), c.Seed)
		}
		if err != nil {
			return err
		}
		res, err := PrequentialContext(ctx, clf, strm, Options{
			BatchFraction: r.BatchFraction,
			MinBatchSize:  r.MinBatchSize,
		})
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled mid-cell: not a cell failure. The partial
				// cell is dropped; completed cells stay in the result.
				return nil
			}
			return fmt.Errorf("eval: %s on %s: %w", c.Model, c.Dataset.Name, err)
		}
		if r.CheckpointDir != "" {
			if err := r.saveCell(c, scale, res); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		out.Results[c.Dataset.Name][c.Model] = res
		if r.Progress != nil {
			f1, _ := res.F1()
			sp, _ := res.Splits()
			fmt.Fprintf(r.Progress, "done: %-12s on %-14s F1=%.3f splits=%.1f iters=%d\n",
				c.Model, c.Dataset.DisplayName(), f1, sp, len(res.Iters))
		}
		return nil
	}

	for w := 0; w < r.workers(len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				if ctx.Err() != nil {
					continue // drain remaining cells after cancellation
				}
				if err := runCell(c); err != nil {
					fail(err)
				}
			}
		}()
	}
	for _, c := range cells {
		next <- c
	}
	close(next)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// cellConfig identifies one cell run configuration; stale checkpoint
// files from a different setup are rejected by comparing it.
type cellConfig struct {
	Dataset       string
	Model         string
	Seed          int64
	Scale         float64
	BatchFraction float64
	MinBatchSize  int
	// ScorerMode is "snapshot" for a Serve run and "" for a bare one.
	// Cell file names do not encode it, and gob drops the fields the
	// destination lacks, so it must stay: files from builds that also
	// had "locked" and "sharded" modes (and a Shards count) then fail
	// to match instead of resuming as bare results.
	ScorerMode string
}

// cellCheckpoint is the persisted record of one finished cell: its full
// configuration plus its result, gob-encoded — floats round-trip bit-
// exactly, so a resumed grid reproduces the original numbers verbatim.
type cellCheckpoint struct {
	Config cellConfig
	Result Result
}

func (r Runner) cellConfig(c Cell, scale float64) cellConfig {
	cfg := cellConfig{
		Dataset: c.Dataset.Name, Model: c.Model, Seed: c.Seed,
		Scale: scale, BatchFraction: r.BatchFraction, MinBatchSize: r.MinBatchSize,
	}
	if r.Serve {
		cfg.ScorerMode = "snapshot"
	}
	return cfg
}

// sanitizeComponent maps a dataset/model name onto a filesystem-safe
// file-name component.
func sanitizeComponent(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// cellFile returns the checkpoint path of a cell.
func (r Runner) cellFile(c Cell) string {
	name := fmt.Sprintf("%s__%s__%d.cell", sanitizeComponent(c.Dataset.Name), sanitizeComponent(c.Model), c.Seed)
	return filepath.Join(r.CheckpointDir, name)
}

// saveCell atomically persists a finished cell (temp file + rename).
func (r Runner) saveCell(c Cell, scale float64, res Result) error {
	path := r.cellFile(c)
	tmp, err := os.CreateTemp(r.CheckpointDir, ".cell-*")
	if err != nil {
		return fmt.Errorf("eval: checkpoint cell %s/%s: %w", c.Dataset.Name, c.Model, err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(cellCheckpoint{Config: r.cellConfig(c, scale), Result: res}); err != nil {
		tmp.Close()
		return fmt.Errorf("eval: checkpoint cell %s/%s: %w", c.Dataset.Name, c.Model, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("eval: checkpoint cell %s/%s: %w", c.Dataset.Name, c.Model, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("eval: checkpoint cell %s/%s: %w", c.Dataset.Name, c.Model, err)
	}
	return nil
}

// loadCell reads a cell checkpoint, returning ok only when the file
// exists, decodes cleanly and matches this run's configuration.
// Unreadable or mismatched files are treated as absent (the cell simply
// re-runs), never as fatal: a half-written or stale file must not take
// down a resume.
func (r Runner) loadCell(c Cell, scale float64) (Result, bool) {
	f, err := os.Open(r.cellFile(c))
	if err != nil {
		return Result{}, false
	}
	defer f.Close()
	var ck cellCheckpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil {
		return Result{}, false
	}
	if ck.Config != r.cellConfig(c, scale) {
		return Result{}, false
	}
	return ck.Result, true
}
