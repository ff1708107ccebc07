package stream

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CSV encoding of streams. The first row is a header of feature names
// followed by "class". Schemas with categorical features additionally
// write a kinds row right after the header — per-feature specs like
// "num" or "cat:<cardinality>[:level0|level1|...]" with "#kinds" in the
// class column — so kinds and level dictionaries round-trip losslessly.
// Categorical cells are written as level names when the schema declares
// them (and as bare integer codes otherwise); readers accept either
// form. encoding/csv quotes cell contents, so feature and level names
// containing commas, quotes or newlines survive the round trip exactly;
// the only characters needing extra care are '|' and '%' inside level
// names, which the kinds row percent-escapes.

// kindsSentinel marks the kinds row in the class column.
const kindsSentinel = "#kinds"

// escapeLevel protects the kinds-row level separators inside a level
// name: '%' becomes %25 and '|' becomes %7C.
func escapeLevel(s string) string {
	if !strings.ContainsAny(s, "%|") {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			sb.WriteString("%25")
		case '|':
			sb.WriteString("%7C")
		default:
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// unescapeLevel inverts escapeLevel. Replacing %7C before %25 is what
// makes the inversion exact: a literal "%7C" in the source text was
// escaped to "%257C", which contains no "%7C" substring.
func unescapeLevel(s string) string {
	if !strings.Contains(s, "%") {
		return s
	}
	s = strings.ReplaceAll(s, "%7C", "|")
	return strings.ReplaceAll(s, "%25", "%")
}

// formatKind renders one feature kind as a kinds-row cell.
func formatKind(k FeatureKind) string {
	if !k.Categorical {
		return "num"
	}
	if k.Levels == nil {
		return fmt.Sprintf("cat:%d", k.Cardinality)
	}
	esc := make([]string, len(k.Levels))
	for i, lv := range k.Levels {
		esc[i] = escapeLevel(lv)
	}
	return fmt.Sprintf("cat:%d:%s", k.Cardinality, strings.Join(esc, "|"))
}

// parseKind parses one kinds-row cell.
func parseKind(s string) (FeatureKind, error) {
	if s == "num" || s == "" {
		return Numeric(), nil
	}
	rest, ok := strings.CutPrefix(s, "cat:")
	if !ok {
		return FeatureKind{}, fmt.Errorf("unknown kind spec %q", s)
	}
	cardStr, lvls, hasLevels := strings.Cut(rest, ":")
	card, err := strconv.Atoi(cardStr)
	if err != nil {
		return FeatureKind{}, fmt.Errorf("kind spec %q: bad cardinality: %w", s, err)
	}
	k := Categorical(card)
	if hasLevels {
		parts := strings.Split(lvls, "|")
		k.Levels = make([]string, len(parts))
		for i := range parts {
			k.Levels[i] = unescapeLevel(parts[i])
		}
	}
	if err := k.Validate(); err != nil {
		return FeatureKind{}, fmt.Errorf("kind spec %q: %w", s, err)
	}
	return k, nil
}

// WriteCSV writes the whole stream to w as CSV with a header row of feature
// names followed by "class", and — when the schema declares categorical
// features — a kinds row carrying cardinalities and level dictionaries.
// It returns the number of data rows written.
func WriteCSV(w io.Writer, s Stream) (int, error) {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	schema := s.Schema()
	m := schema.NumFeatures

	header := make([]string, m+1)
	for j := 0; j < m; j++ {
		header[j] = schema.FeatureName(j)
	}
	header[m] = "class"
	if err := cw.Write(header); err != nil {
		return 0, fmt.Errorf("stream: write csv header: %w", err)
	}

	if schema.HasCategorical() {
		kinds := make([]string, m+1)
		for j := 0; j < m; j++ {
			kinds[j] = formatKind(schema.Kind(j))
		}
		kinds[m] = kindsSentinel
		if err := cw.Write(kinds); err != nil {
			return 0, fmt.Errorf("stream: write csv kinds row: %w", err)
		}
	}

	record := make([]string, m+1)
	rows := 0
	for {
		inst, err := s.Next()
		if err == ErrEnd {
			break
		}
		if err != nil {
			return rows, err
		}
		for j, v := range inst.X {
			if k := schema.Kind(j); k.Categorical && k.Levels != nil &&
				v == math.Trunc(v) && v >= 0 && v < float64(len(k.Levels)) {
				record[j] = k.Levels[int(v)]
				continue
			}
			record[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		record[m] = strconv.Itoa(inst.Y)
		if err := cw.Write(record); err != nil {
			return rows, fmt.Errorf("stream: write csv row %d: %w", rows, err)
		}
		rows++
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return rows, err
	}
	return rows, bw.Flush()
}

// cellValue converts one CSV cell of a declared categorical column to its
// level code: a declared level name resolves through the dictionary, and
// anything else must parse as a valid integer code. A code cell "-0"
// reads as code 0, the value every other spelling of level 0 gets.
func cellValue(cell string, k FeatureKind, dict map[string]int) (float64, error) {
	if dict != nil {
		if code, ok := dict[cell]; ok {
			return float64(code), nil
		}
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		if dict != nil {
			return 0, fmt.Errorf("unknown level %q", cell)
		}
		return 0, err
	}
	if err := CheckCode(v, k.Cardinality); err != nil {
		return 0, err
	}
	return float64(int(v)), nil
}

// levelDict builds the name-to-code map of a kind with declared levels.
func levelDict(k FeatureKind) map[string]int {
	if !k.Categorical || k.Levels == nil {
		return nil
	}
	dict := make(map[string]int, len(k.Levels))
	for code, name := range k.Levels {
		dict[name] = code
	}
	return dict
}

// ReadCSV parses a CSV produced by WriteCSV (header row, optional kinds
// row, feature cells, integer class in the last column) into an in-memory
// stream. numClasses may be 0, in which case it is inferred as
// max(label)+1.
//
// Kinds come from the kinds row when present. Without one, columns are
// auto-detected from the first data row: a cell that does not parse as a
// number makes its column categorical, with stable integer codes assigned
// in order of first appearance and the level dictionary recorded on the
// schema. (A categorical column whose level names all look numeric must
// therefore declare itself through a kinds row.)
func ReadCSV(r io.Reader, name string, numClasses int) (*Memory, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.ReuseRecord = true

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("stream: read csv header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("stream: csv needs at least one feature and a class column, got %d columns", len(header))
	}
	m := len(header) - 1
	names := make([]string, m)
	for j := 0; j < m; j++ {
		names[j] = strings.Clone(header[j])
	}

	var (
		kinds    []FeatureKind    // nil until a kinds row or auto-detection declares one
		dicts    []map[string]int // per-column level name -> code
		auto     []bool           // per-column: dictionary grows as levels appear
		autoLv   [][]string       // per-column level names in code order (auto columns)
		declared bool
	)
	ensureKinds := func() {
		if kinds == nil {
			kinds = make([]FeatureKind, m)
			dicts = make([]map[string]int, m)
			auto = make([]bool, m)
			autoLv = make([][]string, m)
		}
	}

	var batch Batch
	maxLabel := 0
	row := 0
	for {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stream: read csv row %d: %w", row, err)
		}
		if len(record) != m+1 {
			return nil, fmt.Errorf("stream: csv row %d has %d columns, want %d", row, len(record), m+1)
		}
		if row == 0 && !declared && record[m] == kindsSentinel {
			ensureKinds()
			declared = true
			for j := 0; j < m; j++ {
				k, err := parseKind(record[j])
				if err != nil {
					return nil, fmt.Errorf("stream: csv kinds row col %d (%s): %w", j, names[j], err)
				}
				kinds[j] = k
				dicts[j] = levelDict(k)
			}
			continue
		}
		if row == 0 && !declared {
			// Auto-detect: non-numeric first cells mark categorical columns.
			for j := 0; j < m; j++ {
				if _, err := strconv.ParseFloat(record[j], 64); err != nil {
					ensureKinds()
					auto[j] = true
					dicts[j] = make(map[string]int)
				}
			}
		}
		x := make([]float64, m)
		for j := 0; j < m; j++ {
			if kinds != nil && auto[j] {
				code, ok := dicts[j][record[j]]
				if !ok {
					code = len(dicts[j])
					lv := strings.Clone(record[j])
					dicts[j][lv] = code
					autoLv[j] = append(autoLv[j], lv)
				}
				x[j] = float64(code)
				continue
			}
			if kinds != nil && kinds[j].Categorical {
				v, err := cellValue(record[j], kinds[j], dicts[j])
				if err != nil {
					return nil, fmt.Errorf("stream: csv row %d col %d (%s): %w", row, j, names[j], err)
				}
				x[j] = v
				continue
			}
			v, err := strconv.ParseFloat(record[j], 64)
			if err != nil {
				return nil, fmt.Errorf("stream: csv row %d col %d: %w", row, j, err)
			}
			x[j] = v
		}
		y, err := strconv.Atoi(record[m])
		if err != nil {
			return nil, fmt.Errorf("stream: csv row %d class: %w", row, err)
		}
		if y < 0 {
			return nil, fmt.Errorf("stream: csv row %d has negative class %d", row, y)
		}
		if y > maxLabel {
			maxLabel = y
		}
		batch.X = append(batch.X, x)
		batch.Y = append(batch.Y, y)
		row++
	}
	if numClasses <= 0 {
		numClasses = maxLabel + 1
	}
	if numClasses < 2 {
		numClasses = 2
	}
	// Finalise auto-detected columns: cardinality is the observed level
	// count (floor 2, so single-level columns still validate; the unused
	// code simply never occurs).
	hasCat := false
	for j := 0; kinds != nil && j < m; j++ {
		if auto[j] {
			card := len(autoLv[j])
			if card < 2 {
				kinds[j] = Categorical(2)
			} else {
				kinds[j] = CategoricalLevels(autoLv[j]...)
			}
		}
		if kinds[j].Categorical {
			hasCat = true
		}
	}
	if !hasCat {
		kinds = nil
	}
	schema := Schema{NumFeatures: m, NumClasses: numClasses, Name: name, FeatureNames: names, Kinds: kinds}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if err := batch.Validate(schema); err != nil {
		return nil, err
	}
	return NewMemory(schema, batch), nil
}

// CSVOptions configures OpenCSV.
type CSVOptions struct {
	// Name labels the schema; defaults to the file's base name.
	Name string
	// NumClasses is the number of target classes; 0 defaults to 2. A
	// streaming loader cannot infer the class count upfront, so labels at
	// or above this bound are reported as errors naming the line.
	NumClasses int
	// Kinds optionally declares the per-feature kinds, overriding any
	// kinds row in the file. A streaming loader cannot auto-detect
	// categorical columns (the schema is fixed before the data is read),
	// so files without a kinds row are read all-numeric unless Kinds says
	// otherwise.
	Kinds []FeatureKind
}

// CSVStream reads a CSV file lazily, one instance per Next call, without
// materialising the data set. It implements Stream and io.Closer; Reset
// rewinds by seeking the underlying file. Row errors (ragged records,
// unparsable cells, labels outside the class range) name the offending
// line of the file.
type CSVStream struct {
	f        *os.File
	cr       *csv.Reader
	schema   Schema
	dicts    []map[string]int
	skipRows int // header rows to skip after a rewind (header + kinds row)
	err      error
}

// OpenCSV opens path as a lazily-read stream: only the header (and kinds
// row, when present) are consumed at open time; each Next reads one data
// row. The returned stream holds the file open — callers Close it when
// done. See CSVOptions for class-count and kind declaration; WriteCSV
// output round-trips (including level dictionaries via the kinds row).
func OpenCSV(path string, opts CSVOptions) (*CSVStream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: open csv: %w", err)
	}
	s, err := newCSVStream(f, opts, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func newCSVStream(f *os.File, opts CSVOptions, path string) (*CSVStream, error) {
	cr := csv.NewReader(bufio.NewReader(f))
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("stream: %s: read csv header: %w", path, err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("stream: %s: csv needs at least one feature and a class column, got %d columns", path, len(header))
	}
	m := len(header) - 1
	names := make([]string, m)
	for j := 0; j < m; j++ {
		names[j] = strings.Clone(header[j])
	}

	kinds := opts.Kinds
	skipRows := 1
	// A kinds row is consumed even when opts.Kinds overrides it, so the
	// data starts at a known row either way.
	record, err := cr.Read()
	switch {
	case err == io.EOF:
		record = nil
	case err != nil:
		return nil, fmt.Errorf("stream: %s: read csv: %w", path, err)
	}
	if record != nil && len(record) == m+1 && record[m] == kindsSentinel {
		skipRows = 2
		if kinds == nil {
			kinds = make([]FeatureKind, m)
			for j := 0; j < m; j++ {
				k, err := parseKind(record[j])
				if err != nil {
					return nil, fmt.Errorf("stream: %s: csv kinds row col %d (%s): %w", path, j, names[j], err)
				}
				kinds[j] = k
			}
		}
	} else if record != nil {
		// The first data row was consumed while peeking; rewind so Next
		// sees every data row exactly once.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("stream: %s: rewind csv: %w", path, err)
		}
		cr = csv.NewReader(bufio.NewReader(f))
		cr.ReuseRecord = true
		if _, err := cr.Read(); err != nil {
			return nil, fmt.Errorf("stream: %s: re-read csv header: %w", path, err)
		}
	}

	numClasses := opts.NumClasses
	if numClasses < 2 {
		numClasses = 2
	}
	name := opts.Name
	if name == "" {
		name = filepath.Base(path)
	}
	hasCat := false
	for _, k := range kinds {
		if k.Categorical {
			hasCat = true
			break
		}
	}
	if !hasCat {
		kinds = nil
	}
	schema := Schema{NumFeatures: m, NumClasses: numClasses, Name: name, FeatureNames: names, Kinds: kinds}
	if err := schema.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %s: %w", path, err)
	}
	s := &CSVStream{f: f, cr: cr, schema: schema, skipRows: skipRows}
	if kinds != nil {
		s.dicts = make([]map[string]int, m)
		for j, k := range kinds {
			s.dicts[j] = levelDict(k)
		}
	}
	return s, nil
}

// Schema implements Stream.
func (s *CSVStream) Schema() Schema { return s.schema }

// line returns the 1-based file line of the record field j, for error
// messages that name the offending line.
func (s *CSVStream) line(j int) int {
	line, _ := s.cr.FieldPos(j)
	return line
}

// Next implements Stream: it parses one data row. After an error (other
// than ErrEnd) the stream stays failed — a partially read file must not
// silently continue past a bad row.
func (s *CSVStream) Next() (Instance, error) {
	if s.err != nil {
		return Instance{}, s.err
	}
	record, err := s.cr.Read()
	if err == io.EOF {
		return Instance{}, ErrEnd
	}
	if err != nil {
		// csv.ParseError already names the line (ragged rows included).
		s.err = fmt.Errorf("stream: %s: %w", s.f.Name(), err)
		return Instance{}, s.err
	}
	m := s.schema.NumFeatures
	if len(record) != m+1 {
		s.err = fmt.Errorf("stream: %s: line %d has %d columns, want %d", s.f.Name(), s.line(0), len(record), m+1)
		return Instance{}, s.err
	}
	x := make([]float64, m)
	for j := 0; j < m; j++ {
		if s.schema.IsCategorical(j) {
			v, err := cellValue(record[j], s.schema.Kind(j), s.dicts[j])
			if err != nil {
				s.err = fmt.Errorf("stream: %s: line %d col %d (%s): %w", s.f.Name(), s.line(j), j, s.schema.FeatureName(j), err)
				return Instance{}, s.err
			}
			x[j] = v
			continue
		}
		v, err := strconv.ParseFloat(record[j], 64)
		if err != nil {
			s.err = fmt.Errorf("stream: %s: line %d col %d: %w", s.f.Name(), s.line(j), j, err)
			return Instance{}, s.err
		}
		x[j] = v
	}
	y, err := strconv.Atoi(record[m])
	if err != nil {
		s.err = fmt.Errorf("stream: %s: line %d class: %w", s.f.Name(), s.line(m), err)
		return Instance{}, s.err
	}
	if y < 0 || y >= s.schema.NumClasses {
		s.err = fmt.Errorf("stream: %s: line %d has label %d outside [0,%d)", s.f.Name(), s.line(m), y, s.schema.NumClasses)
		return Instance{}, s.err
	}
	return Instance{X: x, Y: y}, nil
}

// Reset implements Stream by seeking the file back to the first data row.
func (s *CSVStream) Reset() {
	s.err = nil
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		s.err = fmt.Errorf("stream: %s: rewind csv: %w", s.f.Name(), err)
		return
	}
	cr := csv.NewReader(bufio.NewReader(s.f))
	cr.ReuseRecord = true
	for i := 0; i < s.skipRows; i++ {
		if _, err := cr.Read(); err != nil {
			s.err = fmt.Errorf("stream: %s: rewind csv: %w", s.f.Name(), err)
			return
		}
	}
	s.cr = cr
}

// Close releases the underlying file.
func (s *CSVStream) Close() error { return s.f.Close() }
