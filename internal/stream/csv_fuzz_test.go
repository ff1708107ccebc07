package stream

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to ReadCSV. It must never panic, and
// whatever it accepts must survive WriteCSV → ReadCSV with the same
// schema kinds and level dictionaries, the same labels and bitwise-equal
// cells (any NaN equal to any NaN). The committed corpus under
// testdata/fuzz adds an escaped level dictionary, an auto-detected
// categorical column, a bad cardinality and a ragged row to these seeds.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("x0,x1,x2,class\n0.1,0.2,0.3,0\n0.4,NaN,+Inf,1\n"))
	f.Add([]byte("n1,n2,color,class\nnum,num,cat:3:red|green|blue,#kinds\n0.1,0.2,red,0\n0.4,0.5,2,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := ReadCSV(bytes.NewReader(data), "fuzz", 0)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := WriteCSV(&buf, first); err != nil {
			t.Fatalf("WriteCSV of an accepted input: %v", err)
		}
		second, err := ReadCSV(bytes.NewReader(buf.Bytes()), "fuzz", 0)
		if err != nil {
			t.Fatalf("re-reading the written CSV: %v\n%s", err, buf.Bytes())
		}
		a, b := first.Schema(), second.Schema()
		if !a.SameKinds(b) || a.NumClasses != b.NumClasses {
			t.Fatalf("schema changed: kinds %+v / %d classes -> %+v / %d classes", a.Kinds, a.NumClasses, b.Kinds, b.NumClasses)
		}
		for j := 0; j < a.NumFeatures; j++ {
			la, lb := a.Kind(j).Levels, b.Kind(j).Levels
			if len(la) != len(lb) {
				t.Fatalf("column %d: levels %q -> %q", j, la, lb)
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("column %d: levels %q -> %q", j, la, lb)
				}
			}
		}
		if first.Len() != second.Len() {
			t.Fatalf("%d rows -> %d rows", first.Len(), second.Len())
		}
		for i, x := range first.data.X {
			if first.data.Y[i] != second.data.Y[i] {
				t.Fatalf("row %d: label %d -> %d", i, first.data.Y[i], second.data.Y[i])
			}
			for j, v := range x {
				w := second.data.X[i][j]
				if math.Float64bits(v) != math.Float64bits(w) && !(math.IsNaN(v) && math.IsNaN(w)) {
					t.Fatalf("row %d col %d: %v (%#x) -> %v (%#x)", i, j, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			}
		}
	})
}
