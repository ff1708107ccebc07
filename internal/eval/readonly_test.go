package eval

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/race"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"
)

const readOnlyRace = "race:dmt,vfdt,nb"

type readOnlyStream struct {
	schema stream.Schema
	data   stream.Batch
}

// readOnlyStreams are the rows of the read-only test: a numeric stream
// with NaN and ±Inf cells, so every tree routes non-finite values, and
// the categorical concept stream.
func readOnlyStreams() []readOnlyStream {
	hyper := synth.NewHyperplane(1500, 8, 0.05, 11)
	numeric := stream.Take(hyper, 1500)
	for i, x := range numeric.X {
		switch {
		case i%37 == 5:
			x[0] = math.NaN()
		case i%41 == 7:
			x[3] = math.Inf(1)
		case i%53 == 9:
			x[5] = math.Inf(-1)
		}
	}
	cat := synth.NewCategoricalConcept(1500, 6, 0.05, 12)
	return []readOnlyStream{
		{hyper.Schema(), numeric},
		{cat.Schema(), stream.Take(cat, 1500)},
	}
}

// deepCopy copies every row of b.
func deepCopy(b stream.Batch) stream.Batch {
	out := stream.Batch{X: make([][]float64, len(b.X)), Y: append([]int(nil), b.Y...)}
	for i, x := range b.X {
		out.X[i] = append([]float64(nil), x...)
	}
	return out
}

// newReadOnlyLearner builds name bare or behind the serving layer.
func newReadOnlyLearner(t *testing.T, name string, schema stream.Schema, served bool) model.Classifier {
	t.Helper()
	var (
		c   model.Classifier
		err error
	)
	switch {
	case served:
		c, err = serve.New(serve.Config{Model: name, Schema: schema, Options: []registry.Option{registry.WithSeed(3)}})
	case race.IsSpec(name):
		var arms []race.Arm
		if arms, err = race.ParseSpec(name); err == nil {
			c, err = race.New(race.Config{Schema: schema, Arms: arms, Seed: 3})
		}
	default:
		c, err = NewClassifier(name, schema, 3)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Learn, Predict, PredictBatch and Proba only read batch rows. Batches
// drawn from a *stream.Memory are views of the stream's own rows, so a
// learner that wrote to one would corrupt the stream it learns from.
// Every registered model and a racer, bare and served, run a full
// prequential pass (log-loss on, so Proba runs too) over a Memory; every
// backing cell must then be bitwise what it was.
func TestLearnersLeaveBatchRowsUnchanged(t *testing.T) {
	if n := len(registry.Names()); n < 12 {
		t.Fatalf("%d models registered, want all 12", n)
	}
	names := append(registry.Names(), readOnlyRace)
	streams := readOnlyStreams()
	for _, name := range names {
		for _, s := range streams {
			for _, served := range []bool{false, true} {
				mode := "bare"
				if served {
					mode = "served"
				}
				t.Run(name+"/"+s.schema.Name+"/"+mode, func(t *testing.T) {
					// Each run reads its own copy, so one learner's write
					// cannot hide another's.
					data, want := deepCopy(s.data), s.data
					c := newReadOnlyLearner(t, name, s.schema, served)
					opts := Options{MinBatchSize: 50, LogLoss: true}
					if _, err := Prequential(c, stream.NewMemory(s.schema, data), opts); err != nil {
						t.Fatal(err)
					}
					for i, x := range data.X {
						if len(x) != len(want.X[i]) || data.Y[i] != want.Y[i] {
							t.Fatalf("row %d changed shape or label", i)
						}
						for j, v := range x {
							if math.Float64bits(v) != math.Float64bits(want.X[i][j]) {
								t.Fatalf("row %d col %d: %v became %v", i, j, want.X[i][j], v)
							}
						}
					}
				})
			}
		}
	}
}
