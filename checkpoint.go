package repro

import (
	"bytes"
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

// Delta checkpoints: beside the full envelope, Save's output can be
// diffed into "REPRODLT" delta envelopes keyed by the models'
// StructureVersions, so a serving replica or a resume transfers only
// what changed. Applying a base plus its delta chain is byte-identical
// to the full save at the head version — per-delta base/result
// checksums enforce it, the version keys reject gaps and reordering.

// Delta is one delta envelope: a verified binary patch between two full
// checkpoint envelopes of the same model.
type Delta = persist.Delta

// DeltaHeader is the self-describing metadata of a Delta.
type DeltaHeader = persist.DeltaHeader

// MakeDelta computes the delta between two full checkpoint envelopes
// given as their verbatim wire bytes (two Save outputs).
func MakeDelta(base, target []byte) (*Delta, error) { return persist.MakeDelta(base, target) }

// SaveDelta computes and writes the delta envelope turning the full
// checkpoint bytes base into target.
func SaveDelta(w io.Writer, base, target []byte) error {
	d, err := persist.MakeDelta(base, target)
	if err != nil {
		return err
	}
	return persist.WriteDelta(w, d)
}

// ReadDelta reads exactly one delta envelope; deltas and full envelopes
// stack on one stream, distinguished by magic.
func ReadDelta(r io.Reader) (*Delta, error) { return persist.ReadDelta(r) }

// ApplyDeltaChain applies a chain of consecutive deltas to a base full
// envelope with strict validation (base pin, per-link checksums, version
// continuity) and returns the reconstructed full envelope bytes —
// byte-identical to the full save at the head version.
func ApplyDeltaChain(base []byte, deltas ...*Delta) ([]byte, error) {
	return persist.ApplyChain(base, deltas...)
}

// LoadDelta reconstructs the head model from a base full envelope plus
// its delta chain — the delta-aware Load.
func LoadDelta(base []byte, deltas ...*Delta) (Classifier, error) {
	head, err := persist.ApplyChain(base, deltas...)
	if err != nil {
		return nil, err
	}
	return persist.Load(bytes.NewReader(head))
}
