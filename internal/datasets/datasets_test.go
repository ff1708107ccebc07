package datasets

import (
	"testing"

	"repro/internal/stream"
)

func TestRegistryComplete(t *testing.T) {
	entries := All()
	if len(entries) != 13 {
		t.Fatalf("Table I has 13 data sets, registry has %d", len(entries))
	}
	want := []string{
		"Electricity", "Airlines", "Bank", "TueEyeQ", "Poker", "KDD",
		"Covertype", "Gas", "Insects-Abr.", "Insects-Inc.",
		"SEA", "Agrawal", "Hyperplane",
	}
	for i, e := range entries {
		if e.Name != want[i] {
			t.Fatalf("entry %d = %q, want %q (paper order)", i, e.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	e, err := ByName("SEA")
	if err != nil || e.Name != "SEA" {
		t.Fatalf("ByName(SEA) = %v, %v", e.Name, err)
	}
	// Surrogate display names resolve too.
	e, err = ByName("Gas*")
	if err != nil || e.Name != "Gas" {
		t.Fatalf("ByName(Gas*) = %v, %v", e.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

// Every factory must produce a stream matching its advertised Table I
// dimensions.
func TestFactoriesMatchTableI(t *testing.T) {
	for _, e := range All() {
		s := e.New(0.01, 42)
		schema := s.Schema()
		if err := schema.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if schema.NumFeatures != e.Features {
			t.Errorf("%s: features %d, Table I says %d", e.Name, schema.NumFeatures, e.Features)
		}
		if schema.NumClasses != e.Classes {
			t.Errorf("%s: classes %d, Table I says %d", e.Name, schema.NumClasses, e.Classes)
		}
		sized, ok := s.(stream.Sized)
		if !ok {
			t.Fatalf("%s: not Sized", e.Name)
		}
		if sized.Len() > e.Samples {
			t.Errorf("%s: scaled length %d exceeds full size %d", e.Name, sized.Len(), e.Samples)
		}
		// The stream actually produces valid instances.
		inst, err := s.Next()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(inst.X) != e.Features || inst.Y < 0 || inst.Y >= e.Classes {
			t.Errorf("%s: bad instance %v", e.Name, inst)
		}
	}
}

func TestFullScaleLengths(t *testing.T) {
	for _, e := range All() {
		s := e.New(1, 42)
		if got := s.(stream.Sized).Len(); got != e.Samples {
			t.Errorf("%s: full-scale length %d, want %d", e.Name, got, e.Samples)
		}
	}
}

func TestScaledFloor(t *testing.T) {
	e, _ := ByName("Gas")
	s := e.New(0.0001, 42) // would be ~1 sample; floor applies
	if got := s.(stream.Sized).Len(); got < 2000 {
		t.Fatalf("scaled floor broken: %d", got)
	}
}

// The paper-reference maps must cover every reported model so the
// printed paper-vs-measured comparisons are complete.
func TestPaperReferencesComplete(t *testing.T) {
	f1Models := []string{DMT, FIMTDD, VFDTMC, VFDTNBA, HTAda, EFDT, Forest, Bagging}
	treeModels := []string{DMT, FIMTDD, VFDTMC, VFDTNBA, HTAda, EFDT}
	for _, e := range All() {
		for _, m := range f1Models {
			if _, ok := e.PaperF1[m]; !ok {
				t.Errorf("%s: missing paper F1 for %s", e.Name, m)
			}
		}
		for _, m := range treeModels {
			if _, ok := e.PaperSplits[m]; !ok {
				t.Errorf("%s: missing paper splits for %s", e.Name, m)
			}
			if _, ok := e.PaperParams[m]; !ok {
				t.Errorf("%s: missing paper params for %s", e.Name, m)
			}
		}
	}
}

func TestMajorityShares(t *testing.T) {
	// Spot-check the Table I majority shares.
	e, _ := ByName("Bank")
	if share := e.MajorityShare(); share < 0.88 || share > 0.89 {
		t.Fatalf("Bank majority share %v, Table I says 39922/45211", share)
	}
	e, _ = ByName("Poker")
	if share := e.MajorityShare(); share < 0.50 || share > 0.51 {
		t.Fatalf("Poker majority share %v", share)
	}
}

func TestSurrogateMarking(t *testing.T) {
	real := map[string]bool{"SEA": true, "Agrawal": true, "Hyperplane": true}
	for _, e := range All() {
		if real[e.Name] && e.Surrogate {
			t.Errorf("%s is a faithful generator, not a surrogate", e.Name)
		}
		if !real[e.Name] && !e.Surrogate {
			t.Errorf("%s must be marked as a surrogate (offline environment)", e.Name)
		}
		if e.Surrogate && e.DisplayName() != e.Name+"*" {
			t.Errorf("%s: surrogate display name %q", e.Name, e.DisplayName())
		}
	}
}

func TestDeterministicFactories(t *testing.T) {
	e, _ := ByName("Electricity")
	a := e.New(0.01, 42)
	b := e.New(0.01, 42)
	for i := 0; i < 200; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia.Y != ib.Y || ia.X[0] != ib.X[0] {
			t.Fatal("same seed produced different streams")
		}
	}
}
