// Package repro is the public API of this reproduction of "Dynamic Model
// Tree for Interpretable Data Stream Learning" (Haug, Broelemann, Kasneci;
// ICDE 2022). It exposes the Dynamic Model Tree, every baseline of the
// paper's evaluation, the stream generators and surrogate data sets of
// Table I, and the prequential evaluation harness that regenerates the
// paper's tables and figures.
//
// Quickstart (registry + functional options, the serving API):
//
//	gen := repro.NewSEA(100_000, 0.1, 42)
//	dmt, err := repro.New("DMT", gen.Schema(), repro.WithSeed(42))
//	if err != nil { ... }
//	res, err := repro.PrequentialContext(ctx, dmt, gen, repro.EvalOptions{})
//	if err != nil { ... }
//	f1, _ := res.F1()
//
// Every learner package self-registers in the model registry, so New
// builds any of the paper's eight models (plus the extra baselines) by
// table name; functional options (WithSeed, WithLearningRate, ...) replace
// direct config-struct wiring. Register plugs external learners into the
// same registry. For serving reads during learning, use Serve (lock-free
// snapshot scorer with batch prediction; NewScorer remains the RWMutex
// wrapper); for fanning whole experiment grids across cores, use the
// Runner (or ExperimentSuite with Parallel > 1). Save and Load
// checkpoint any registered model through a self-describing envelope —
// a save → load → continue run is byte-identical to never stopping —
// and the Runner resumes interrupted grids from per-cell checkpoints.
//
// The typed constructors below (NewDMT, NewVFDT, ...) remain for callers
// that want compile-time configs and the concrete tree types.
//
// See examples/ for runnable programs and cmd/dmtbench for the full
// experiment suite.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/efdt"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/fimtdd"
	"repro/internal/hatada"
	"repro/internal/hoeffding"
	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/synth"
)

// Data model aliases.
type (
	// Schema describes a classification stream (features, classes, name).
	Schema = stream.Schema
	// FeatureKind declares one feature column as numeric or categorical
	// (with a cardinality and optional level names) on Schema.Kinds.
	FeatureKind = stream.FeatureKind
	// Instance is one labelled observation.
	Instance = stream.Instance
	// Batch is a row-major mini-batch.
	Batch = stream.Batch
	// Stream produces labelled instances; all generators implement it.
	Stream = stream.Stream
	// Classifier is the batch-incremental online classifier contract.
	Classifier = model.Classifier
	// ProbabilisticClassifier is implemented by models exposing class
	// probabilities.
	ProbabilisticClassifier = model.ProbabilisticClassifier
	// Complexity is the paper's split/parameter accounting (Section VI-D2).
	Complexity = model.Complexity
)

// ErrEndOfStream signals stream exhaustion from Stream.Next.
var ErrEndOfStream = stream.ErrEnd

// NumericKind declares a numeric feature column (the default).
func NumericKind() FeatureKind { return stream.Numeric() }

// CategoricalKind declares a categorical feature column whose values are
// integer level codes in [0, cardinality).
func CategoricalKind(cardinality int) FeatureKind { return stream.Categorical(cardinality) }

// CategoricalKindLevels declares a categorical feature column with named
// levels; the cardinality is the level count and code i means levels[i].
func CategoricalKindLevels(levels ...string) FeatureKind {
	return stream.CategoricalLevels(levels...)
}

// Dynamic Model Tree (the paper's contribution).
type (
	// DMT is the Dynamic Model Tree classifier.
	DMT = core.Tree
	// DMTConfig holds the DMT hyperparameters (Section V-D defaults).
	DMTConfig = core.Config
	// DMTChange describes one interpretable structural change of a DMT.
	DMTChange = core.ChangeEvent
)

// NewDMT returns a Dynamic Model Tree for the schema.
func NewDMT(cfg DMTConfig, schema Schema) *DMT { return core.New(cfg, schema) }

// Baselines of the paper's comparison (Section VI-C).
type (
	// VFDT is the Hoeffding tree baseline; LeafMode selects MC/NB/NBA.
	VFDT = hoeffding.Tree
	// VFDTConfig holds the Hoeffding tree hyperparameters.
	VFDTConfig = hoeffding.Config
	// HTAda is the adaptive Hoeffding tree baseline.
	HTAda = hatada.Tree
	// HTAdaConfig holds its hyperparameters.
	HTAdaConfig = hatada.Config
	// EFDT is the Extremely Fast Decision Tree baseline.
	EFDT = efdt.Tree
	// EFDTConfig holds its hyperparameters.
	EFDTConfig = efdt.Config
	// FIMTDD is the FIMT-DD classification-variant baseline.
	FIMTDD = fimtdd.Tree
	// FIMTDDConfig holds its hyperparameters.
	FIMTDDConfig = fimtdd.Config
	// ARF is the Adaptive Random Forest ensemble.
	ARF = ensemble.ARF
	// LevBag is the Leveraging Bagging ensemble.
	LevBag = ensemble.LevBag
	// EnsembleConfig configures both ensembles.
	EnsembleConfig = ensemble.Config
)

// Leaf modes of the VFDT.
const (
	LeafMajorityClass      = hoeffding.MajorityClass
	LeafNaiveBayes         = hoeffding.NaiveBayes
	LeafNaiveBayesAdaptive = hoeffding.NaiveBayesAdaptive
)

// NewVFDT returns a Hoeffding tree (VFDT) for the schema.
func NewVFDT(cfg VFDTConfig, schema Schema) *VFDT { return hoeffding.New(cfg, schema) }

// NewHTAda returns an adaptive Hoeffding tree for the schema.
func NewHTAda(cfg HTAdaConfig, schema Schema) *HTAda { return hatada.New(cfg, schema) }

// NewEFDT returns an Extremely Fast Decision Tree for the schema.
func NewEFDT(cfg EFDTConfig, schema Schema) *EFDT { return efdt.New(cfg, schema) }

// NewFIMTDD returns the FIMT-DD classification variant for the schema.
func NewFIMTDD(cfg FIMTDDConfig, schema Schema) *FIMTDD { return fimtdd.New(cfg, schema) }

// NewARF returns an Adaptive Random Forest for the schema.
func NewARF(cfg EnsembleConfig, schema Schema) *ARF { return ensemble.NewARF(cfg, schema) }

// NewLevBag returns a Leveraging Bagging ensemble for the schema.
func NewLevBag(cfg EnsembleConfig, schema Schema) *LevBag { return ensemble.NewLevBag(cfg, schema) }

// NewClassifierByName builds any of the paper's models by its table name
// ("DMT", "FIMT-DD", "VFDT (MC)", "VFDT (NBA)", "HT-Ada", "EFDT",
// "Forest Ens.", "Bagging Ens.") configured as in Section VI-C.
func NewClassifierByName(name string, schema Schema, seed int64) (Classifier, error) {
	return eval.NewClassifier(name, schema, seed)
}

// Stream generators (Section VI-B).
type (
	// SEA is the SEA generator with abrupt drifts.
	SEA = synth.SEA
	// Agrawal is the Agrawal generator with incremental drift windows.
	Agrawal = synth.Agrawal
	// Hyperplane is the rotating-hyperplane generator.
	Hyperplane = synth.Hyperplane
	// ClusterStream is the Gaussian-cluster surrogate generator.
	ClusterStream = synth.Cluster
	// ClusterConfig parameterises a ClusterStream.
	ClusterConfig = synth.ClusterConfig
	// DriftKind selects a surrogate drift mechanism.
	DriftKind = synth.DriftKind
)

// Surrogate drift mechanisms.
const (
	DriftNone        = synth.DriftNone
	DriftAbrupt      = synth.DriftAbrupt
	DriftIncremental = synth.DriftIncremental
	DriftWalk        = synth.DriftWalk
)

// NewSEA returns a SEA stream (samples, label-noise probability, seed).
func NewSEA(samples int, noise float64, seed int64) *SEA { return synth.NewSEA(samples, noise, seed) }

// NewAgrawal returns an Agrawal stream with the paper's drift windows.
func NewAgrawal(samples int, perturbation float64, seed int64) *Agrawal {
	return synth.NewAgrawal(samples, perturbation, seed)
}

// NewHyperplane returns a rotating-hyperplane stream.
func NewHyperplane(samples, features int, noise float64, seed int64) *Hyperplane {
	return synth.NewHyperplane(samples, features, noise, seed)
}

// NewClusterStream returns a Gaussian-cluster surrogate stream.
func NewClusterStream(cfg ClusterConfig) *ClusterStream { return synth.NewCluster(cfg) }

// Categorical planted-concept stream and drift-scenario combinators.
type (
	// CategoricalConcept is the planted categorical-concept stream: the
	// label depends only on a hidden subset of a categorical attribute's
	// levels, with codes ordered so numeric thresholds cannot separate
	// the classes. Its Factorised method returns the same stream with the
	// categorical kind erased — the numeric-baseline comparison.
	CategoricalConcept = synth.CategoricalConcept
	// ConceptSwitch composes generators into abrupt, gradual or recurring
	// drift scenarios.
	ConceptSwitch = synth.ConceptSwitch
)

// NewCategoricalConcept returns a planted categorical-concept stream
// (samples, cardinality of the categorical feature, label noise, seed).
func NewCategoricalConcept(samples, card int, noise float64, seed int64) *CategoricalConcept {
	return synth.NewCategoricalConcept(samples, card, noise, seed)
}

// NewAbruptSwitch chains concepts with abrupt boundaries (one segment
// per concept).
func NewAbruptSwitch(samples int, seed int64, concepts ...Stream) *ConceptSwitch {
	return synth.NewAbruptSwitch(samples, seed, concepts...)
}

// NewGradualSwitch chains concepts with a linear mixing window of the
// given width (instances) at each boundary.
func NewGradualSwitch(samples, width int, seed int64, concepts ...Stream) *ConceptSwitch {
	return synth.NewGradualSwitch(samples, width, seed, concepts...)
}

// NewRecurringSwitch cycles through the concepts over the given number
// of segments, so each concept recurs.
func NewRecurringSwitch(samples, segments int, seed int64, concepts ...Stream) *ConceptSwitch {
	return synth.NewRecurringSwitch(samples, segments, seed, concepts...)
}

// MajorityPriors builds class priors with the given majority share.
func MajorityPriors(classes int, majorityShare float64) []float64 {
	return synth.MajorityPriors(classes, majorityShare)
}

// Table I registry.
type DatasetEntry = datasets.Entry

// Datasets returns the 13 Table I entries in the paper's order.
func Datasets() []DatasetEntry { return datasets.All() }

// DatasetByName looks up one Table I entry.
func DatasetByName(name string) (DatasetEntry, error) { return datasets.ByName(name) }

// Evaluation harness (Section VI-A).
type (
	// EvalOptions configures a prequential run.
	EvalOptions = eval.Options
	// EvalResult is one model's prequential run on one stream.
	EvalResult = eval.Result
	// IterStats are the per-iteration measurements.
	IterStats = eval.IterStats
	// ExperimentSuite runs the full reproduction.
	ExperimentSuite = eval.Suite
	// ExperimentResult holds a suite's results and renders the paper's
	// tables and figures.
	ExperimentResult = eval.SuiteResult
)

// RunCategoricalScenario runs the categorical payoff experiment — each
// native-split model on the planted categorical concept, native schema
// versus factorised (code-as-float) baseline — and renders the result
// table. progress may be nil.
func RunCategoricalScenario(scale float64, seed int64, progress io.Writer) (string, error) {
	return eval.RunCategoricalScenario(scale, seed, progress)
}

// Prequential runs test-then-train evaluation of a classifier on a
// stream (batches of EvalOptions.BatchFraction, default 0.1%).
func Prequential(c Classifier, s Stream, opts EvalOptions) (EvalResult, error) {
	return eval.Prequential(c, s, opts)
}

// NewMemoryStream wraps in-memory data in a replayable stream. The data
// is not copied: batches drawn from the stream (NextBatch, Prequential)
// share its rows, while Next hands out a copy of each row.
func NewMemoryStream(schema Schema, data Batch) Stream { return stream.NewMemory(schema, data) }

// LimitStream caps a stream at n instances.
func LimitStream(s Stream, n int) Stream { return stream.NewLimit(s, n) }

// WriteCSVStream materialises a stream to CSV and returns the row count.
func WriteCSVStream(w io.Writer, s Stream) (int, error) { return stream.WriteCSV(w, s) }

// ReadCSVStream loads a CSV stream into a replayable in-memory stream.
// numClasses 0 infers the class count from the labels. Like
// NewMemoryStream, its batches share the loaded rows and Next copies.
func ReadCSVStream(r io.Reader, name string, numClasses int) (Stream, error) {
	return stream.ReadCSV(r, name, numClasses)
}

// FileStream is a stream backed by an open file; Close releases it.
type FileStream interface {
	Stream
	io.Closer
}

// OpenCSVStream opens a CSV file as a lazily-read stream: one row per
// Next, no whole-file materialisation — the loader for data sets larger
// than memory. numClasses 0 defaults to binary classification (a lazy
// reader cannot scan ahead to infer the label range); kinds and level
// dictionaries are honoured from the file's kinds row when present. The
// caller should Close the returned stream when done.
func OpenCSVStream(path string, numClasses int) (FileStream, error) {
	return stream.OpenCSV(path, stream.CSVOptions{NumClasses: numClasses})
}
