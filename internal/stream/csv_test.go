package stream

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func catSchema() Schema {
	return Schema{
		NumFeatures:  3,
		NumClasses:   2,
		Name:         "cat",
		FeatureNames: []string{"n1", "n2", "color"},
		Kinds: []FeatureKind{
			Numeric(), Numeric(), CategoricalLevels("red", "green", "blue"),
		},
	}
}

func catBatch() Batch {
	return Batch{
		X: [][]float64{{0.1, 0.2, 0}, {0.4, 0.5, 2}, {0.7, 0.8, 1}, {0.9, 0.3, 2}},
		Y: []int{0, 1, 0, 1},
	}
}

// A categorical schema round-trips through CSV with kinds, cardinalities
// and level dictionaries intact, and categorical cells written as level
// names.
func TestCSVCategoricalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rows, err := WriteCSV(&buf, NewMemory(catSchema(), catBatch()))
	if err != nil || rows != 4 {
		t.Fatalf("WriteCSV = %d, %v", rows, err)
	}
	text := buf.String()
	if !strings.Contains(text, kindsSentinel) {
		t.Fatalf("no kinds row in output:\n%s", text)
	}
	if !strings.Contains(text, "red") || !strings.Contains(text, "blue") {
		t.Fatalf("categorical cells not written as level names:\n%s", text)
	}
	back, err := ReadCSV(strings.NewReader(text), "cat", 2)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Schema()
	want := catSchema()
	if !got.SameKinds(want) {
		t.Fatalf("kinds did not round-trip: %+v", got.Kinds)
	}
	if got.Kinds[2].Levels[1] != "green" {
		t.Fatalf("level dictionary lost: %+v", got.Kinds[2].Levels)
	}
	orig := catBatch()
	for i := 0; i < 4; i++ {
		inst, err := back.Next()
		if err != nil {
			t.Fatal(err)
		}
		for j := range inst.X {
			if inst.X[j] != orig.X[i][j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, inst.X[j], orig.X[i][j])
			}
		}
	}
}

// Feature names survive the round trip exactly, including names with
// commas, quotes and spaces (encoding/csv quotes them); level names with
// '|' and '%' survive the kinds-row escaping.
func TestCSVFeatureNamesExact(t *testing.T) {
	schema := Schema{
		NumFeatures:  2,
		NumClasses:   2,
		Name:         "names",
		FeatureNames: []string{`amount, in "USD"`, "strange|level %name"},
		Kinds:        []FeatureKind{Numeric(), CategoricalLevels("a|b", "c%7Cd", "plain")},
	}
	b := Batch{X: [][]float64{{1.5, 0}, {2.5, 1}, {3.5, 2}}, Y: []int{0, 1, 0}}
	var buf bytes.Buffer
	if _, err := WriteCSV(&buf, NewMemory(schema, b)); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), "names", 2)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Schema()
	for j, name := range schema.FeatureNames {
		if got.FeatureNames[j] != name {
			t.Fatalf("feature name %d: %q != %q", j, got.FeatureNames[j], name)
		}
	}
	for i, lv := range schema.Kinds[1].Levels {
		if got.Kinds[1].Levels[i] != lv {
			t.Fatalf("level %d: %q != %q", i, got.Kinds[1].Levels[i], lv)
		}
	}
}

// Columns whose first cell is not numeric are auto-detected as
// categorical with first-appearance codes.
func TestReadCSVAutoDetect(t *testing.T) {
	in := "size,label,class\nsmall,x,0\nlarge,y,1\nsmall,z,0\n"
	m, err := ReadCSV(strings.NewReader(in), "auto", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Schema()
	if !s.IsCategorical(0) || !s.IsCategorical(1) {
		t.Fatalf("auto-detection missed a categorical column: %+v", s.Kinds)
	}
	if s.Cardinality(0) != 2 || s.Cardinality(1) != 3 {
		t.Fatalf("cardinalities = %d, %d", s.Cardinality(0), s.Cardinality(1))
	}
	inst, _ := m.Next()
	if inst.X[0] != 0 { // "small" is the first-appearing level
		t.Fatalf("first level code = %v, want 0", inst.X[0])
	}
}

// A declared categorical column rejects unknown level names and
// out-of-range codes, naming the row and column.
func TestReadCSVRejectsBadLevels(t *testing.T) {
	in := "color,class\ncat:2:red|green,#kinds\nred,0\npurple,1\n"
	_, err := ReadCSV(strings.NewReader(in), "bad", 2)
	if err == nil || !strings.Contains(err.Error(), "purple") {
		t.Fatalf("unknown level not reported: %v", err)
	}
	in = "color,class\ncat:2,#kinds\n0,0\n7,1\n"
	_, err = ReadCSV(strings.NewReader(in), "bad", 2)
	if err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Fatalf("out-of-range code not reported with its row: %v", err)
	}
}

func writeTempCSV(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// OpenCSV reads lazily, honours the kinds row, replays after Reset and
// round-trips WriteCSV output.
func TestOpenCSVStreaming(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteCSV(&buf, NewMemory(catSchema(), catBatch())); err != nil {
		t.Fatal(err)
	}
	path := writeTempCSV(t, buf.String())
	s, err := OpenCSV(path, CSVOptions{NumClasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Schema().SameKinds(catSchema()) {
		t.Fatalf("kinds row not honoured: %+v", s.Schema().Kinds)
	}
	orig := catBatch()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 4; i++ {
			inst, err := s.Next()
			if err != nil {
				t.Fatalf("pass %d row %d: %v", pass, i, err)
			}
			if inst.Y != orig.Y[i] || inst.X[2] != orig.X[i][2] {
				t.Fatalf("pass %d row %d: got (%v, %d)", pass, i, inst.X, inst.Y)
			}
		}
		if _, err := s.Next(); !errors.Is(err, ErrEnd) {
			t.Fatalf("pass %d: want ErrEnd, got %v", pass, err)
		}
		s.Reset()
	}
}

// OpenCSV without a kinds row reads all-numeric; declared CSVOptions.Kinds
// overrides.
func TestOpenCSVDeclaredKinds(t *testing.T) {
	path := writeTempCSV(t, "a,b,class\n1,0,0\n2,1,1\n")
	s, err := OpenCSV(path, CSVOptions{NumClasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema().HasCategorical() {
		t.Fatal("numeric file detected as categorical")
	}
	s.Close()

	s, err = OpenCSV(path, CSVOptions{
		NumClasses: 2,
		Kinds:      []FeatureKind{Numeric(), Categorical(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Schema().IsCategorical(1) {
		t.Fatal("declared kinds ignored")
	}
	if inst, err := s.Next(); err != nil || inst.X[0] != 1 {
		t.Fatalf("first data row misread: %v, %v (the peeked row must be replayed)", inst, err)
	}
}

// Streaming errors name the offending file line: ragged rows, bad
// labels, bad floats and out-of-range codes.
func TestOpenCSVLineErrors(t *testing.T) {
	cases := []struct {
		name, content, wantSub string
		opts                   CSVOptions
	}{
		{
			name:    "ragged",
			content: "a,b,class\n1,2,0\n3,1\n",
			wantSub: "line 3",
			opts:    CSVOptions{NumClasses: 2},
		},
		{
			name:    "bad label",
			content: "a,b,class\n1,2,0\n1,2,9\n",
			wantSub: "line 3",
			opts:    CSVOptions{NumClasses: 2},
		},
		{
			name:    "bad float",
			content: "a,b,class\n1,2,0\n1,huh,1\n",
			wantSub: "line 3",
			opts:    CSVOptions{NumClasses: 2},
		},
		{
			name:    "bad code",
			content: "color,class\ncat:2,#kinds\n0,0\n5,1\n",
			wantSub: "line 4",
			opts:    CSVOptions{NumClasses: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTempCSV(t, tc.content)
			s, err := OpenCSV(path, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var last error
			for {
				_, err := s.Next()
				if err != nil {
					last = err
					break
				}
			}
			if errors.Is(last, ErrEnd) {
				t.Fatal("bad row was accepted")
			}
			if !strings.Contains(last.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name %q", last, tc.wantSub)
			}
			// Errors are sticky.
			if _, err := s.Next(); err == nil {
				t.Fatal("stream continued past a bad row")
			}
		})
	}
}

// A level dictionary that names two levels alike cannot round-trip (the
// name reads back as one code), so the kinds row is rejected.
func TestReadCSVRejectsDuplicateLevels(t *testing.T) {
	in := "color,class\ncat:2:red|red,#kinds\nred,0\n0,1\n"
	if _, err := ReadCSV(strings.NewReader(in), "dup", 2); err == nil || !strings.Contains(err.Error(), `"red"`) {
		t.Fatalf("duplicate level names not reported: %v", err)
	}
	if err := CategoricalLevels("a", "b", "a").Validate(); err == nil {
		t.Fatal("CategoricalLevels with a repeated name validated")
	}
}

// A categorical code cell spelled "-0" reads as code 0, so it writes and
// reads back as the same bits whether or not the column names levels.
func TestReadCSVNegativeZeroCode(t *testing.T) {
	for _, kinds := range []string{"cat:2", "cat:2:a|b"} {
		m, err := ReadCSV(strings.NewReader("c,class\n"+kinds+",#kinds\n-0,0\n1,1\n"), "zero", 2)
		if err != nil {
			t.Fatal(err)
		}
		inst, _ := m.Next()
		if math.Signbit(inst.X[0]) {
			t.Fatalf("%s: code cell -0 read as negative zero", kinds)
		}
	}
}
