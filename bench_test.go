package repro

// One benchmark per table and figure of the paper's evaluation (Tables
// I–VI, Figures 3–4; the surrogate streams are described in the package
// doc of internal/datasets). The expensive prequential suite runs
// once (shared across table benchmarks, outside the timed region at the
// paper's 0.1% batch fraction) on streams scaled by REPRO_BENCH_SCALE
// (default 0.002, i.e. every stream floored to ~2000 instances); each
// benchmark then regenerates and prints its table or figure. Absolute
// numbers depend on the scale — the shape (who wins, who stays shallow)
// is what these reproduce; run cmd/dmtbench -scale 1 for full-size runs.
//
// The Benchmark*Op benchmarks at the bottom are conventional per-op
// micro-benchmarks of the hot paths.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/attrobs"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/glm"
	"repro/internal/hoeffding"
	"repro/internal/split"
	"repro/internal/stream"
	"repro/internal/synth"
)

func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= 1 {
			return v
		}
	}
	return 0.1
}

var (
	suiteOnce sync.Once
	suiteRes  *eval.SuiteResult
	suiteErr  error
)

// sharedSuite runs the full 8-model x 13-stream prequential suite once.
func sharedSuite() (*eval.SuiteResult, error) {
	suiteOnce.Do(func() {
		suiteRes, suiteErr = eval.Suite{
			Scale: benchScale(),
			Seed:  42,
		}.Run()
	})
	return suiteRes, suiteErr
}

func printOnce(b *testing.B, out string) {
	if b.N >= 1 {
		fmt.Println(out)
	}
}

// BenchmarkTable1DataSets regenerates Table I (E1).
func BenchmarkTable1DataSets(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Table1()
	}
	b.StopTimer()
	printOnce(b, out)
}

// BenchmarkTable2F1 regenerates Table II (E2).
func BenchmarkTable2F1(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Table2()
	}
	b.StopTimer()
	printOnce(b, out)
}

// BenchmarkTable3Splits regenerates Table III (E3).
func BenchmarkTable3Splits(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Table3()
	}
	b.StopTimer()
	printOnce(b, out)
}

// BenchmarkTable4Params regenerates Table IV (E4).
func BenchmarkTable4Params(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Table4()
	}
	b.StopTimer()
	printOnce(b, out)
}

// BenchmarkTable5Time regenerates Table V (E5).
func BenchmarkTable5Time(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Table5()
	}
	b.StopTimer()
	printOnce(b, out)
}

// BenchmarkTable6Summary regenerates Table VI (E6).
func BenchmarkTable6Summary(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Table6()
	}
	b.StopTimer()
	printOnce(b, out)
}

// BenchmarkFigure3DriftSeries regenerates the Figure 3 panels (E7).
func BenchmarkFigure3DriftSeries(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Figure3(20)
	}
	b.StopTimer()
	printOnce(b, out)
}

// BenchmarkFigure4Scatter regenerates Figure 4 (E8).
func BenchmarkFigure4Scatter(b *testing.B) {
	res, err := sharedSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = res.Figure4()
	}
	b.StopTimer()
	printOnce(b, out)
}

var (
	ablationOnce sync.Once
	ablationOut  string
	ablationErr  error
)

// BenchmarkAblationStudy runs the DMT ablation study (E9).
func BenchmarkAblationStudy(b *testing.B) {
	ablationOnce.Do(func() {
		ablationOut, ablationErr = eval.RunAblation(benchScale(), 42, nil)
	})
	if ablationErr != nil {
		b.Fatal(ablationErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = len(ablationOut)
	}
	b.StopTimer()
	printOnce(b, ablationOut)
}

// --- Per-operation micro-benchmarks of the hot paths. ---

func seaBatches(n, size int) []stream.Batch {
	gen := synth.NewSEA(n*size, 0.1, 1)
	out := make([]stream.Batch, n)
	for i := range out {
		b, err := stream.NextBatch(gen, size)
		if err != nil {
			panic(err)
		}
		out[i] = b
	}
	return out
}

// BenchmarkDMTLearnBatchOp measures one DMT prequential training step on
// a 100-row batch (SEA schema).
func BenchmarkDMTLearnBatchOp(b *testing.B) {
	batches := seaBatches(256, 100)
	tree := core.New(core.Config{Seed: 1}, synth.NewSEA(100, 0.1, 1).Schema())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Learn(batches[i&255])
	}
}

// BenchmarkDMTPredictOp measures one DMT prediction after training.
func BenchmarkDMTPredictOp(b *testing.B) {
	batches := seaBatches(256, 100)
	tree := core.New(core.Config{Seed: 1}, synth.NewSEA(100, 0.1, 1).Schema())
	for _, batch := range batches {
		tree.Learn(batch)
	}
	x := batches[0].X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(x)
	}
}

// BenchmarkADWINAddOp measures one ADWIN update.
func BenchmarkADWINAddOp(b *testing.B) {
	a := drift.NewADWIN(0.002)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(float64(i&1) * 0.5)
	}
}

// BenchmarkGLMRowLossGradOp measures one logit loss+gradient evaluation.
func BenchmarkGLMRowLossGradOp(b *testing.B) {
	m := glm.New(50, 2, nil)
	x := make([]float64, 50)
	for j := range x {
		x[j] = 0.5
	}
	grad := make([]float64, m.NumWeights())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RowLossGrad(x, i&1, grad)
	}
}

// linearBenchBatches builds count batches of size rows over m uniform
// features labelled by a fixed linear rule — a steady-state workload (the
// DMT does not split on a linear concept, Property 2), so the benchmarks
// below measure the per-batch hot path rather than structural changes.
func linearBenchBatches(m, count, size int, seed int64) []stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	out := make([]stream.Batch, count)
	for k := range out {
		X := make([][]float64, size)
		Y := make([]int, size)
		for i := 0; i < size; i++ {
			x := make([]float64, m)
			s := -0.5 * float64(m) * 0.5
			for j := range x {
				x[j] = rng.Float64()
				s += w[j] * x[j]
			}
			X[i] = x
			if s > 0 {
				Y[i] = 1
			}
		}
		out[k] = stream.Batch{X: X, Y: Y}
	}
	return out
}

// BenchmarkLearnOp measures one steady-state DMT Learn call (100-row
// batch) across feature widths. This is the acceptance benchmark of the
// candidate-index optimisation.
func BenchmarkLearnOp(b *testing.B) {
	for _, m := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			batches := linearBenchBatches(m, 64, 100, 7)
			tree := core.New(core.Config{Seed: 1}, stream.Schema{NumFeatures: m, NumClasses: 2, Name: "bench"})
			for _, bt := range batches {
				tree.Learn(bt) // warm up: fill the candidate pool, size buffers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.Learn(batches[i&63])
			}
		})
	}
}

// BenchmarkVFDTLearnOneOp measures one Hoeffding tree instance update.
func BenchmarkVFDTLearnOneOp(b *testing.B) {
	gen := synth.NewSEA(1_000_000, 0.1, 2)
	tree := hoeffding.New(hoeffding.Config{Seed: 2}, gen.Schema())
	insts := make([]stream.Instance, 4096)
	for i := range insts {
		insts[i], _ = gen.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := insts[i&4095]
		tree.LearnOne(inst.X, inst.Y, 1)
	}
}

// BenchmarkHoeffdingLearnOp measures one warmed VFDT LearnOne call across
// feature widths (the ensemble weak-learner hot path).
func BenchmarkHoeffdingLearnOp(b *testing.B) {
	for _, m := range []int{10, 50} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			batches := linearBenchBatches(m, 64, 100, 11)
			tree := hoeffding.New(hoeffding.Config{Seed: 3},
				stream.Schema{NumFeatures: m, NumClasses: 2, Name: "bench"})
			for _, bt := range batches {
				tree.Learn(bt) // warm up: grow the tree, size buffers
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt := batches[i&63]
				r := i % len(bt.X)
				tree.LearnOne(bt.X[r], bt.Y[r], 1)
			}
		})
	}
}

// BenchmarkHoeffdingPredictOp measures one warmed VFDT prediction.
func BenchmarkHoeffdingPredictOp(b *testing.B) {
	batches := linearBenchBatches(10, 64, 100, 11)
	tree := hoeffding.New(hoeffding.Config{Seed: 3},
		stream.Schema{NumFeatures: 10, NumClasses: 2, Name: "bench"})
	for _, bt := range batches {
		tree.Learn(bt)
	}
	x := batches[0].X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(x)
	}
}

// BenchmarkScorerReadOp measures one Predict under an active writer: a
// background goroutine trains the same scorer continuously, so the
// locked variant pays the RWMutex write-lock hold of every Learn while
// the snapshot variant reads the published snapshot wait-free. This is
// the acceptance benchmark of the lock-free serving rework.
func BenchmarkScorerReadOp(b *testing.B) {
	schema := stream.Schema{NumFeatures: 50, NumClasses: 2, Name: "bench"}
	for _, mode := range []string{"locked", "snapshot"} {
		b.Run(mode, func(b *testing.B) {
			batches := linearBenchBatches(50, 64, 200, 17)
			var s Scorer
			if mode == "locked" {
				s = NewScorer(MustNew("DMT", schema, WithSeed(1)))
			} else {
				s = MustServe("DMT", schema, WithServeModelOptions(WithSeed(1)))
			}
			for _, bt := range batches {
				s.Learn(bt)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s.Learn(batches[i&63])
				}
			}()
			x := batches[0].X[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Predict(x)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkSnapshotPublishOp measures one snapshot clone+publish of a
// warmed DMT — the cost WithPublishEvery amortises.
func BenchmarkSnapshotPublishOp(b *testing.B) {
	schema := stream.Schema{NumFeatures: 50, NumClasses: 2, Name: "bench"}
	batches := linearBenchBatches(50, 64, 200, 17)
	s, err := NewSnapshotScorer(MustNew("DMT", schema, WithSeed(1)), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bt := range batches {
		s.Learn(bt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Publish()
	}
}

// BenchmarkScorerRestoreAged measures one replica install — a
// SnapshotScorer.Restore of a Forest Ens. envelope — for envelopes taken
// after 10k and after 200k training rows. The ensemble draws a Poisson
// weight per member and row, so the RNG position it checkpoints grows
// with the trainer's age. The restore only records that position, so
// the install pays for model size alone: the older forest is larger
// (envelope_B), and ns/op follows it, but ns/envelope_B should not grow
// from the younger to the older forest. An eager RNG replay shows up as
// a per-byte cost that grows with the row count.
func BenchmarkScorerRestoreAged(b *testing.B) {
	schema := synth.NewSEA(100, 0.1, 1).Schema()
	serveForest := func() Scorer {
		return MustServe("Forest Ens.", schema, WithPublishOnChange(), WithServeModelOptions(WithSeed(1)))
	}
	for _, rows := range []int{10_000, 200_000} {
		trainer := serveForest()
		gen := synth.NewSEA(rows, 0.1, 1)
		for n := 0; n < rows; n += 100 {
			bt, err := stream.NextBatch(gen, 100)
			if err != nil {
				b.Fatal(err)
			}
			trainer.Learn(bt)
		}
		var env bytes.Buffer
		if err := trainer.Checkpoint(&env); err != nil {
			b.Fatal(err)
		}
		replica := serveForest()
		b.Run(fmt.Sprintf("rows=%dk", rows/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := replica.Restore(bytes.NewReader(env.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.Len()), "envelope_B")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(env.Len()), "ns/envelope_B")
		})
	}
}

// BenchmarkFIMTDDLearnOp measures one steady-state FIMT-DD Learn call on
// a 100-row batch (depth-capped, prune-suppressed so the measurement
// stays on the per-instance hot path: routing, E-BST updates, RowStep).
func BenchmarkFIMTDDLearnOp(b *testing.B) {
	batches := seaBatches(64, 100)
	tree := NewFIMTDD(FIMTDDConfig{Seed: 1, MaxDepth: 3, PHLambda: 1e12},
		synth.NewSEA(100, 0.1, 1).Schema())
	// Several passes saturate the depth-capped tree and fill the leaf
	// E-BST indices, so the timed region measures the steady state.
	for pass := 0; pass < 30; pass++ {
		for _, bt := range batches {
			tree.Learn(bt)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Learn(batches[i&63])
	}
}

// BenchmarkGLMStepOp measures one mean-gradient Step on a 100-row batch
// for the two GLM variants (the DMT/FIMT-DD leaf-model workhorses).
func BenchmarkGLMStepOp(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    int
	}{{"logit", 2}, {"softmax-c4", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			m := glm.New(20, tc.c, nil)
			rng := rand.New(rand.NewSource(5))
			X := make([][]float64, 100)
			Y := make([]int, 100)
			for i := range X {
				X[i] = make([]float64, 20)
				for j := range X[i] {
					X[i][j] = rng.Float64()
				}
				Y[i] = rng.Intn(tc.c)
			}
			m.Step(X, Y, 0.05)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(X, Y, 0.05)
			}
		})
	}
}

// BenchmarkEnsembleLearnOp measures one ensemble Learn call on a 100-row
// batch for both paper ensembles (3 VFDT members each). This is the
// acceptance benchmark of the parallel member fan-out.
func BenchmarkEnsembleLearnOp(b *testing.B) {
	schema := stream.Schema{NumFeatures: 10, NumClasses: 2, Name: "bench"}
	builders := []struct {
		name string
		make func() Classifier
	}{
		{"ARF", func() Classifier { return ensemble.NewARF(ensemble.Config{Seed: 1}, schema) }},
		{"LevBag", func() Classifier { return ensemble.NewLevBag(ensemble.Config{Seed: 1}, schema) }},
	}
	for _, bld := range builders {
		b.Run(bld.name, func(b *testing.B) {
			batches := linearBenchBatches(10, 64, 100, 13)
			ens := bld.make()
			for _, bt := range batches {
				ens.Learn(bt) // warm up: grow members, settle detectors
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ens.Learn(batches[i&63])
			}
		})
	}
}

// catBenchBatches materialises planted categorical-concept batches.
func catBenchBatches(count, size int) []stream.Batch {
	gen := synth.NewCategoricalConcept(count*size+size, 8, 0.05, 1)
	out := make([]stream.Batch, count)
	for k := range out {
		b, err := stream.NextBatch(gen, size)
		if err != nil {
			panic(err)
		}
		out[k] = b
	}
	return out
}

// BenchmarkCategoricalScanOp measures one native categorical split scan
// — every seen level as an equality candidate plus the CART-ordered
// subset prefixes — over a warmed 16-level observer.
func BenchmarkCategoricalScanOp(b *testing.B) {
	obs := attrobs.NewCategorical(2, 16)
	rng := rand.New(rand.NewSource(1))
	pre := make([]float64, 2)
	for i := 0; i < 5000; i++ {
		lv, y := rng.Intn(16), rng.Intn(2)
		obs.Observe(float64(lv), y, 1)
		pre[y]++
	}
	buf := attrobs.NewScanBuf(2)
	buf.ReserveLevels(16)
	crit := split.InfoGain{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.BestSplit(pre, crit, buf)
	}
}

// BenchmarkDMTCategoricalLearnOp measures DMT batch learning on the
// planted categorical stream (equality-bucket candidate updates and the
// categorical split scan included).
func BenchmarkDMTCategoricalLearnOp(b *testing.B) {
	batches := catBenchBatches(256, 100)
	tree := core.New(core.Config{Seed: 1}, synth.NewCategoricalConcept(100, 8, 0.05, 1).Schema())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Learn(batches[i&255])
	}
}

// BenchmarkVFDTCategoricalLearnOp measures Hoeffding-tree batch learning
// with a categorical observer on the planted categorical stream.
func BenchmarkVFDTCategoricalLearnOp(b *testing.B) {
	batches := catBenchBatches(256, 100)
	tree := hoeffding.New(hoeffding.Config{Seed: 1}, synth.NewCategoricalConcept(100, 8, 0.05, 1).Schema())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Learn(batches[i&255])
	}
}

// BenchmarkRacerLearnOp measures one racer Learn on a 100-row SEA
// batch: every arm scores the rows prequentially (windowed error +
// ADWIN on the 0/1 error stream) and trains, then the leader is
// re-elected and a fresh serving snapshot publishes. The per-row cost
// is roughly the sum of the arms' costs plus the scoring overhead —
// what a fixed-model deployment pays to keep the racing option open.
func BenchmarkRacerLearnOp(b *testing.B) {
	batches := seaBatches(64, 100)
	r, err := Race(synth.NewSEA(100, 0.1, 1).Schema(), Arms("glm", "vfdt", "nb"), WithRaceSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bt := range batches {
		r.Learn(bt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Learn(batches[i&63])
	}
}

// BenchmarkRacerReadOp measures one Predict against the racer's leader
// snapshot while a background goroutine keeps training all arms — the
// wait-free read path every serving request takes, which must not pay
// for the N-arm training happening behind it.
func BenchmarkRacerReadOp(b *testing.B) {
	batches := seaBatches(64, 100)
	r, err := Race(synth.NewSEA(100, 0.1, 1).Schema(), Arms("glm", "vfdt", "nb"), WithRaceSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, bt := range batches {
		r.Learn(bt)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Learn(batches[i&63])
		}
	}()
	x := batches[0].X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Predict(x)
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
