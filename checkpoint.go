package repro

import (
	"io"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/registry"
)

// Unified checkpoint/restore: every registered model — the DMT, all
// baselines, both ensembles — persists through one API. Save wraps the
// learner's complete training state (structure, sufficient statistics,
// drift-detector windows, RNG position) in a versioned self-describing
// envelope: magic bytes, format version, the registered model name, the
// stream schema, the resolved ModelParams and a payload checksum. Load
// reads the envelope and resolves the restore factory from the model
// name in the registry — the caller never names a type, exactly as New
// resolves construction factories from a string.
//
// The round trip is lossless in the strictest sense: a save → load →
// continue run is byte-identical in predictions and complexity to a run
// that never stopped, for every registered model.
//
//	f, _ := os.Create("model.ckpt")
//	err := repro.Save(f, clf)            // any registered model
//	...
//	restored, err := repro.Load(f2)      // type resolved from the envelope
//	restored.Learn(nextBatch)            // continues exactly where clf was
//
// External learners plugged in via Register participate by implementing
// Checkpointer plus a `Schema() Schema` accessor (the envelope embeds
// the schema) and registering a loader with RegisterLoader.

// Checkpointer is implemented by every registered learner: SaveState
// streams the model-private checkpoint payload Save wraps in the
// envelope.
type Checkpointer = model.Checkpointer

// ModelLoader restores a classifier from a checkpoint payload; the
// schema and resolved params come from the envelope.
type ModelLoader = registry.Loader

// Save writes c as a self-describing checkpoint envelope. c must be a
// registered model (or an external learner implementing Checkpointer
// whose name has a RegisterLoader entry), so the checkpoint is
// guaranteed restorable by Load.
func Save(w io.Writer, c Classifier) error { return persist.Save(w, c) }

// Load reconstructs a model from a checkpoint envelope written by Save.
// The registry resolves the model's restore factory from the envelope's
// model name; the caller never names the concrete type. Corrupt,
// truncated or checksum-mismatched envelopes and checkpoints from newer
// format versions are rejected with descriptive errors.
func Load(r io.Reader) (Classifier, error) { return persist.Load(r) }

// RegisterLoader adds the checkpoint-restore factory of an externally
// registered model — the Load counterpart of Register. Registered
// learners ship with their loaders; this is only needed for external
// models.
func RegisterLoader(name string, l ModelLoader) { registry.RegisterLoader(name, l) }
