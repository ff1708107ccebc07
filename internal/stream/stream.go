// Package stream defines the data model shared by every learner in this
// repository: single instances, batches, stream schemas, and the Stream
// interface implemented by the synthetic generators, surrogate data sets
// and in-memory replays. It also provides CSV encoding and decoding so
// streams can be materialised to disk and replayed.
//
// Batches drawn from an in-memory stream (Memory, and so ReadCSV's
// result) through NextBatch or NextBatchContext share the stream's rows
// instead of copying them, which keeps prequential evaluation free of
// per-row allocation; Memory.Next still hands out a private copy. Rows in
// a batch are therefore read-only to whoever consumes it — learners
// included (see model.Classifier).
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// FeatureKind describes one feature column: numeric (the zero value) or
// categorical with a fixed number of levels. Categorical features travel
// through batches as float64 level codes 0..Cardinality-1 — stable small
// integers, not measurements — so learners that honour the kind can split
// by equality or level subsets instead of imposing an arbitrary ordering
// on the codes. The zero value is the numeric kind, which keeps
// pre-existing all-numeric schemas (Kinds == nil) byte-compatible.
type FeatureKind struct {
	// Categorical marks the feature as categorical. False is numeric.
	Categorical bool
	// Cardinality is the number of distinct levels (>= 2) when
	// Categorical; it must be 0 for numeric features.
	Cardinality int
	// Levels optionally names the levels for display and CSV round-trips;
	// when non-nil its length must equal Cardinality. Level i is encoded
	// as the float64 code i.
	Levels []string
}

// Numeric returns the numeric feature kind (the zero value, spelled out).
func Numeric() FeatureKind { return FeatureKind{} }

// Categorical returns a categorical kind with the given number of levels.
func Categorical(cardinality int) FeatureKind {
	return FeatureKind{Categorical: true, Cardinality: cardinality}
}

// CategoricalLevels returns a categorical kind whose levels are named;
// level i encodes as the float64 code i.
func CategoricalLevels(levels ...string) FeatureKind {
	return FeatureKind{Categorical: true, Cardinality: len(levels), Levels: levels}
}

// Validate reports whether the kind is internally consistent.
func (k FeatureKind) Validate() error {
	if !k.Categorical {
		if k.Cardinality != 0 || k.Levels != nil {
			return errors.New("numeric kind must have zero cardinality and no levels")
		}
		return nil
	}
	if k.Cardinality < 2 {
		return fmt.Errorf("categorical kind has cardinality %d, need >= 2", k.Cardinality)
	}
	if k.Levels != nil && len(k.Levels) != k.Cardinality {
		return fmt.Errorf("categorical kind names %d of %d levels", len(k.Levels), k.Cardinality)
	}
	// A level name stands for exactly one code; a repeated name would
	// read back as a different code than the one written.
	seen := make(map[string]int, len(k.Levels))
	for code, name := range k.Levels {
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("categorical kind names levels %d and %d both %q", prev, code, name)
		}
		seen[name] = code
	}
	return nil
}

// Schema describes a classification stream: the feature dimensionality,
// the number of target classes and, optionally, per-feature kinds.
// Following the paper's preprocessing (Section VI-B), the default is
// all-numeric features normalised to [0, 1]; Kinds lets a stream declare
// categorical columns instead of factorising them to arbitrary numeric
// codes, so learners can use native equality/subset splits.
type Schema struct {
	// NumFeatures is the number of input features m.
	NumFeatures int
	// NumClasses is the number of target classes c (>= 2).
	NumClasses int
	// Name identifies the stream in reports (e.g. "SEA", "Electricity*").
	Name string
	// FeatureNames optionally labels the features for interpretability
	// output. When nil, callers should synthesise x0..x{m-1}.
	FeatureNames []string
	// Kinds optionally declares per-feature kinds. Nil means all numeric
	// (the historical schema); when non-nil its length must equal
	// NumFeatures. Checkpoint envelopes written before kinds existed
	// decode with Kinds == nil and stay loadable.
	Kinds []FeatureKind
}

// Validate reports whether the schema is internally consistent.
func (s Schema) Validate() error {
	if s.NumFeatures < 1 {
		return fmt.Errorf("stream: schema %q has %d features, need >= 1", s.Name, s.NumFeatures)
	}
	if s.NumClasses < 2 {
		return fmt.Errorf("stream: schema %q has %d classes, need >= 2", s.Name, s.NumClasses)
	}
	if s.FeatureNames != nil && len(s.FeatureNames) != s.NumFeatures {
		return fmt.Errorf("stream: schema %q names %d of %d features", s.Name, len(s.FeatureNames), s.NumFeatures)
	}
	if s.Kinds != nil {
		if len(s.Kinds) != s.NumFeatures {
			return fmt.Errorf("stream: schema %q declares kinds for %d of %d features", s.Name, len(s.Kinds), s.NumFeatures)
		}
		for j, k := range s.Kinds {
			if err := k.Validate(); err != nil {
				return fmt.Errorf("stream: schema %q feature %d (%s): %w", s.Name, j, s.FeatureName(j), err)
			}
		}
	}
	return nil
}

// FeatureName returns the display name of feature j.
func (s Schema) FeatureName(j int) string {
	if s.FeatureNames != nil && j >= 0 && j < len(s.FeatureNames) {
		return s.FeatureNames[j]
	}
	return fmt.Sprintf("x%d", j)
}

// Kind returns the kind of feature j; features outside a declared Kinds
// slice (including every feature of a nil-Kinds schema) are numeric.
func (s Schema) Kind(j int) FeatureKind {
	if s.Kinds != nil && j >= 0 && j < len(s.Kinds) {
		return s.Kinds[j]
	}
	return FeatureKind{}
}

// IsCategorical reports whether feature j is categorical.
func (s Schema) IsCategorical(j int) bool { return s.Kind(j).Categorical }

// Cardinality returns the number of levels of categorical feature j, or 0
// for numeric features.
func (s Schema) Cardinality(j int) int { return s.Kind(j).Cardinality }

// HasCategorical reports whether any feature is categorical.
func (s Schema) HasCategorical() bool {
	for _, k := range s.Kinds {
		if k.Categorical {
			return true
		}
	}
	return false
}

// SameKinds reports whether two schemas agree on every feature's kind
// and cardinality. Level names are display metadata and not compared.
func (s Schema) SameKinds(o Schema) bool {
	if s.NumFeatures != o.NumFeatures {
		return false
	}
	for j := 0; j < s.NumFeatures; j++ {
		a, b := s.Kind(j), o.Kind(j)
		if a.Categorical != b.Categorical || a.Cardinality != b.Cardinality {
			return false
		}
	}
	return true
}

// LevelName renders level code of categorical feature j for display: the
// declared level name when one exists, otherwise the bare code.
func (s Schema) LevelName(j, code int) string {
	k := s.Kind(j)
	if k.Levels != nil && code >= 0 && code < len(k.Levels) {
		return k.Levels[code]
	}
	return fmt.Sprintf("%d", code)
}

// Instance is one labelled observation.
type Instance struct {
	X []float64
	Y int
}

// Batch is a column-free, row-major mini-batch: X[i] is the feature vector
// of the i-th row and Y[i] its label. The prequential evaluator feeds
// batches of 0.1% of the stream (Section VI-A); instance-incremental
// learning uses batches of size 1.
type Batch struct {
	X [][]float64
	Y []int
}

// Len returns the number of rows.
func (b Batch) Len() int { return len(b.Y) }

// Slice returns rows [lo, hi) without copying the underlying data. The
// result's capacity ends at hi, so an append to it allocates instead of
// overwriting the parent's row hi.
func (b Batch) Slice(lo, hi int) Batch {
	return Batch{X: b.X[lo:hi:hi], Y: b.Y[lo:hi:hi]}
}

// CheckCode validates one categorical cell value against a declared
// cardinality: the code must be a finite integer in [0, cardinality).
// The error names the defect precisely; callers prefix row/column.
func CheckCode(v float64, cardinality int) error {
	if v != math.Trunc(v) {
		return fmt.Errorf("categorical code %v is not an integer", v)
	}
	if v < 0 || v >= float64(cardinality) {
		return fmt.Errorf("categorical code %v outside [0,%d)", v, cardinality)
	}
	return nil
}

// Validate checks rectangular shape, label range and categorical code
// range against the schema. Errors name the first offending row (and
// column, for cell-level defects) so a bad batch is locatable.
func (b Batch) Validate(s Schema) error {
	if len(b.X) != len(b.Y) {
		return fmt.Errorf("stream: batch has %d feature rows but %d labels", len(b.X), len(b.Y))
	}
	for i, row := range b.X {
		if len(row) != s.NumFeatures {
			return fmt.Errorf("stream: row %d has %d features, schema wants %d (first offending row)", i, len(row), s.NumFeatures)
		}
		if b.Y[i] < 0 || b.Y[i] >= s.NumClasses {
			return fmt.Errorf("stream: row %d has label %d outside [0,%d) (first offending row)", i, b.Y[i], s.NumClasses)
		}
		for j, k := range s.Kinds {
			if !k.Categorical {
				continue
			}
			if err := CheckCode(row[j], k.Cardinality); err != nil {
				return fmt.Errorf("stream: row %d column %d (%s): %w", i, j, s.FeatureName(j), err)
			}
		}
	}
	return nil
}

// ErrEnd signals stream exhaustion from Stream.Next.
var ErrEnd = errors.New("stream: end of stream")

// Stream produces labelled instances in a fixed order. Implementations are
// not safe for concurrent use; the evaluator drives them sequentially, as
// prequential evaluation requires (Section VI-A).
type Stream interface {
	// Schema describes the produced instances.
	Schema() Schema
	// Next returns the next instance or ErrEnd when exhausted. The returned
	// feature slice must not be retained by the stream (callers own it).
	Next() (Instance, error)
	// Reset rewinds the stream to its beginning, replaying the identical
	// sequence (same seed).
	Reset()
}

// Sized is implemented by streams with a known finite length.
type Sized interface {
	// Len returns the total number of instances the stream will produce.
	Len() int
}

// ContextStream is optionally implemented by streams whose production can
// block (network taps, queues, rate-limited replays): NextContext must
// honour cancellation. Purely computational streams need not implement
// it — NextWithContext checks the context for them.
type ContextStream interface {
	Stream
	// NextContext is Next with cancellation: it returns ctx.Err() as soon
	// as the context is done.
	NextContext(ctx context.Context) (Instance, error)
}

// NextWithContext draws one instance, honouring cancellation: it returns
// ctx.Err() when the context is done, delegates to NextContext when the
// stream supports it, and falls back to plain Next otherwise.
func NextWithContext(ctx context.Context, s Stream) (Instance, error) {
	if err := ctx.Err(); err != nil {
		return Instance{}, err
	}
	if cs, ok := s.(ContextStream); ok {
		return cs.NextContext(ctx)
	}
	return s.Next()
}

// NextBatch draws up to n instances from s. It returns ErrEnd only when
// no instance at all could be drawn. From a *Memory the batch is a view
// of the stream's rows (see NextBatchContext); from any other stream it
// is a fresh batch.
func NextBatch(s Stream, n int) (Batch, error) {
	return NextBatchContext(context.Background(), s, n)
}

// NextBatchContext is NextBatch with cancellation: the context is checked
// before every instance, and its error aborts the batch immediately (the
// partial batch is dropped — a cancelled run must not train on it).
//
// A *Memory hands out a view instead: after one context check the batch
// is the next rows of its backing data, shared and not copied, and
// nothing is allocated. Its capacity ends at its last row, so an append
// cannot reach the stream's later rows, but its rows are the stream's own
// and must only be read. Every other stream is drawn row by row into a
// fresh batch.
func NextBatchContext(ctx context.Context, s Stream, n int) (Batch, error) {
	if m, ok := s.(*Memory); ok {
		return m.nextView(ctx, n)
	}
	b := Batch{X: make([][]float64, 0, n), Y: make([]int, 0, n)}
	for i := 0; i < n; i++ {
		inst, err := NextWithContext(ctx, s)
		if err != nil {
			if errors.Is(err, ErrEnd) {
				break
			}
			return Batch{}, err
		}
		b.X = append(b.X, inst.X)
		b.Y = append(b.Y, inst.Y)
	}
	if b.Len() == 0 {
		return Batch{}, ErrEnd
	}
	return b, nil
}

// Take materialises up to n instances into memory. From a Memory it is a
// view of the stream's rows, like NextBatch.
func Take(s Stream, n int) Batch {
	b, err := NextBatch(s, n)
	if err != nil {
		return Batch{}
	}
	return b
}

// Memory is an in-memory stream replaying a fixed batch. It implements
// Stream and Sized. Next hands out a private copy of each row; NextBatch
// and NextBatchContext hand out views that share the backing rows.
type Memory struct {
	schema Schema
	data   Batch
	pos    int
}

// NewMemory wraps data in a replayable stream. The batch is not copied:
// batches drawn with NextBatch share its rows, so neither the caller nor
// a learner fed from the stream may write to them while it is in use.
func NewMemory(schema Schema, data Batch) *Memory {
	return &Memory{schema: schema, data: data}
}

// nextView returns rows [pos, min(pos+n, Len)) of the backing batch and
// advances past them. It returns ErrEnd once the stream is exhausted and
// for n <= 0, and ctx.Err() for a done context, neither advancing.
func (m *Memory) nextView(ctx context.Context, n int) (Batch, error) {
	if err := ctx.Err(); err != nil {
		return Batch{}, err
	}
	if n <= 0 || m.pos >= m.data.Len() {
		return Batch{}, ErrEnd
	}
	lo, hi := m.pos, min(m.pos+n, m.data.Len())
	m.pos = hi
	return m.data.Slice(lo, hi), nil
}

// Schema implements Stream.
func (m *Memory) Schema() Schema { return m.schema }

// Len implements Sized.
func (m *Memory) Len() int { return m.data.Len() }

// Next implements Stream. The returned feature slice is a copy, so callers
// may mutate it freely.
func (m *Memory) Next() (Instance, error) {
	if m.pos >= m.data.Len() {
		return Instance{}, ErrEnd
	}
	x := make([]float64, len(m.data.X[m.pos]))
	copy(x, m.data.X[m.pos])
	inst := Instance{X: x, Y: m.data.Y[m.pos]}
	m.pos++
	return inst, nil
}

// Reset implements Stream.
func (m *Memory) Reset() { m.pos = 0 }

// Limit wraps a stream and stops it after n instances; it is how the
// evaluation harness scales the Table I workloads down for CI-sized runs.
type Limit struct {
	inner Stream
	n     int
	done  int
}

// NewLimit returns a stream producing at most n instances of inner.
func NewLimit(inner Stream, n int) *Limit { return &Limit{inner: inner, n: n} }

// Schema implements Stream.
func (l *Limit) Schema() Schema { return l.inner.Schema() }

// Len implements Sized.
func (l *Limit) Len() int {
	if s, ok := l.inner.(Sized); ok && s.Len() < l.n {
		return s.Len()
	}
	return l.n
}

// Next implements Stream.
func (l *Limit) Next() (Instance, error) {
	if l.done >= l.n {
		return Instance{}, ErrEnd
	}
	inst, err := l.inner.Next()
	if err != nil {
		return Instance{}, err
	}
	l.done++
	return inst, nil
}

// Reset implements Stream.
func (l *Limit) Reset() {
	l.inner.Reset()
	l.done = 0
}
