package repro

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// The facade quickstart path: generator -> DMT -> prequential run.
func TestFacadeQuickstart(t *testing.T) {
	gen := NewSEA(5000, 0.1, 42)
	dmt := NewDMT(DMTConfig{Seed: 42}, gen.Schema())
	res, err := Prequential(dmt, gen, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 1000 {
		t.Fatalf("iterations = %d", len(res.Iters))
	}
	f1, _ := res.F1()
	if f1 <= 0.3 {
		t.Fatalf("DMT F1 = %v — not learning through the facade", f1)
	}
}

// Every classifier constructor is usable through the facade.
func TestFacadeConstructors(t *testing.T) {
	schema := Schema{NumFeatures: 3, NumClasses: 2, Name: "t"}
	classifiers := []Classifier{
		NewDMT(DMTConfig{}, schema),
		NewVFDT(VFDTConfig{}, schema),
		NewVFDT(VFDTConfig{LeafMode: LeafNaiveBayesAdaptive}, schema),
		NewHTAda(HTAdaConfig{}, schema),
		NewEFDT(EFDTConfig{}, schema),
		NewFIMTDD(FIMTDDConfig{}, schema),
		NewARF(EnsembleConfig{}, schema),
		NewLevBag(EnsembleConfig{}, schema),
	}
	batch := Batch{X: [][]float64{{0.1, 0.5, 0.9}, {0.9, 0.5, 0.1}}, Y: []int{0, 1}}
	for _, c := range classifiers {
		c.Learn(batch)
		if y := c.Predict([]float64{0.5, 0.5, 0.5}); y < 0 || y > 1 {
			t.Fatalf("%s predicted %d", c.Name(), y)
		}
		comp := c.Complexity()
		if comp.Splits < 0 || comp.Params < 0 {
			t.Fatalf("%s complexity %+v", c.Name(), comp)
		}
	}
}

func TestFacadeByName(t *testing.T) {
	schema := Schema{NumFeatures: 2, NumClasses: 2, Name: "t"}
	for _, name := range []string{"DMT", "FIMT-DD", "VFDT (MC)", "VFDT (NBA)", "HT-Ada", "EFDT", "Forest Ens.", "Bagging Ens."} {
		c, err := NewClassifierByName(name, schema, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("%q != %q", c.Name(), name)
		}
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(Datasets()) != 13 {
		t.Fatalf("registry size %d", len(Datasets()))
	}
	e, err := DatasetByName("Hyperplane")
	if err != nil || e.Features != 50 {
		t.Fatalf("Hyperplane lookup: %v %v", e, err)
	}
}

func TestFacadeGenerators(t *testing.T) {
	gens := []Stream{
		NewSEA(100, 0.1, 1),
		NewAgrawal(100, 0.1, 1),
		NewHyperplane(100, 10, 0.1, 1),
		NewClusterStream(ClusterConfig{Name: "c", Samples: 100, Features: 3, Classes: 2, Seed: 1}),
	}
	for _, g := range gens {
		inst, err := g.Next()
		if err != nil {
			t.Fatalf("%s: %v", g.Schema().Name, err)
		}
		for _, v := range inst.X {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s emitted %v", g.Schema().Name, inst.X)
			}
		}
	}
}

func TestFacadeStreamsHelpers(t *testing.T) {
	schema := Schema{NumFeatures: 1, NumClasses: 2, Name: "mem"}
	mem := NewMemoryStream(schema, Batch{X: [][]float64{{0.1}, {0.9}}, Y: []int{0, 1}})
	lim := LimitStream(mem, 1)
	if _, err := lim.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := lim.Next(); err != ErrEndOfStream {
		t.Fatalf("want ErrEndOfStream, got %v", err)
	}
	if MajorityPriors(4, 0.7)[0] != 0.7 {
		t.Fatal("MajorityPriors")
	}
}

// Checkpointing works through the facade.
func TestFacadeSaveLoad(t *testing.T) {
	gen := NewSEA(10_000, 0.1, 5)
	dmt := NewDMT(DMTConfig{Seed: 5}, gen.Schema())
	if _, err := Prequential(dmt, gen, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, dmt); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.4, 0.5}
	if dmt.Predict(x) != loaded.Predict(x) {
		t.Fatal("checkpoint round trip changed predictions")
	}
}

// DMT interpretability hooks are reachable through the facade.
func TestFacadeDMTInterpretability(t *testing.T) {
	gen := NewSEA(20000, 0.1, 3)
	dmt := NewDMT(DMTConfig{Seed: 3}, gen.Schema())
	if _, err := Prequential(dmt, gen, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	if w := dmt.LeafWeights([]float64{0.5, 0.5, 0.5}, 1); len(w) != 3 {
		t.Fatalf("LeafWeights = %v", w)
	}
	if desc := dmt.Describe(); !strings.Contains(desc, "leaf[") {
		t.Fatalf("Describe:\n%s", desc)
	}
	for _, ev := range dmt.Changes() {
		if ev.Gain < ev.AICThreshold {
			t.Fatalf("change below threshold: %+v", ev)
		}
	}
}
