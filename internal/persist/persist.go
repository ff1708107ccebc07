// Package persist implements the registry-wide model checkpoint format
// behind repro.Save / repro.Load: a versioned, self-describing envelope
// around each learner's private state payload. The envelope records the
// model's registered name, its stream schema, the resolved ModelParams
// (when the learner reports them) and a payload checksum, so Load can
// reconstruct any registered model from the bytes alone — the registry
// resolves the LoadState factory from the envelope's model name, exactly
// as registry.New resolves construction factories from a string.
//
// Wire layout (all sizes exact, so envelopes may be stacked on one
// stream):
//
//	magic   [8]byte  "REPROCKP"
//	hlen    uint32   big-endian length of the gob-encoded header
//	header  gob      {Version, Model, Schema, Params, PayloadLen, PayloadCRC}
//	payload [PayloadLen]byte  model-private (see model.Checkpointer)
//
// A composite checkpoint — several models that restore together, like
// a racer's arms — is one bundle:
//
//	magic   [8]byte  "REPROBND"
//	version, klen  uint32  big-endian, like every integer below
//	kind    [klen]byte  the composite ("race"), 1..64 bytes
//	members, mlen  uint32  member count (1..4096), meta length
//	meta    [mlen]byte  the composite's own state
//	members × the envelope above
//
// The bundle header is not gob: gob's bytes depend on which types the
// writing process encoded before.
// Earlier builds also wrote "sharded" bundles of hash-sharded replicas:
// they still frame, but no scorer restores them any more.
//
// Delta envelopes ("REPRODLT", see delta.go) patch one full envelope
// into another.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stream"
)

// Magic identifies a checkpoint envelope.
const Magic = "REPROCKP"

// FormatVersion is the envelope format this build writes. Version 1 was
// the pre-envelope DMT gob document, which no longer loads.
const FormatVersion = 2

// maxHeaderLen and maxPayloadLen bound the framed sections so a corrupt
// length field cannot make Load attempt an absurd allocation (the
// largest real checkpoints — wide ensembles with full E-BST observers —
// are tens of megabytes).
const (
	maxHeaderLen  = 1 << 20
	maxPayloadLen = 1 << 31
)

// Header is the self-describing metadata of one checkpoint envelope.
type Header struct {
	// Version is the envelope format version (FormatVersion when written
	// by this build).
	Version int
	// Model is the registered model name the payload belongs to; Load
	// resolves the LoadState factory from it.
	Model string
	// Schema is the stream schema the model was built for.
	Schema stream.Schema
	// Params is the resolved ModelParams bag the model reports via
	// registry.ParamsReporter (zero when the learner does not report).
	Params registry.Params
	// PayloadLen and PayloadCRC frame and checksum the payload bytes.
	PayloadLen int64
	PayloadCRC uint32
	// StructVersion records the model's StructureVersion at save time;
	// HasStructVersion distinguishes a genuine zero from a model that
	// reports no version. Delta envelopes (see delta.go) key their chains
	// on it. Gob tolerates the added fields in both directions, so the
	// format version stays 2.
	StructVersion    uint64
	HasStructVersion bool
}

// Envelope is one decoded checkpoint: the header plus the verified
// payload bytes.
type Envelope struct {
	Header  Header
	Payload []byte
}

// Save writes c as a checkpoint envelope. c must implement
// model.Checkpointer (every registered learner does) and its Name must
// have a registered loader, so the checkpoint is guaranteed loadable by
// the matching build.
func Save(w io.Writer, c model.Classifier) error {
	ck, ok := c.(model.Checkpointer)
	if !ok {
		return fmt.Errorf("persist: %s does not implement model.Checkpointer", c.Name())
	}
	name := c.Name()
	if !registry.HasLoader(name) {
		return fmt.Errorf("persist: model %q has no registered checkpoint loader", name)
	}
	// The schema is mandatory: Load validates it before resolving the
	// loader, so a model that cannot report one would write checkpoints
	// that are never loadable — fail the write instead.
	sp, ok := c.(interface{ Schema() stream.Schema })
	if !ok {
		return fmt.Errorf("persist: %s does not expose Schema() stream.Schema, required for the checkpoint envelope", name)
	}
	schema := sp.Schema()
	if err := schema.Validate(); err != nil {
		return fmt.Errorf("persist: %s schema: %w", name, err)
	}
	var payload bytes.Buffer
	if err := ck.SaveState(&payload); err != nil {
		return fmt.Errorf("persist: save %s state: %w", name, err)
	}
	h := Header{
		Version:    FormatVersion,
		Model:      name,
		Schema:     schema,
		PayloadLen: int64(payload.Len()),
		PayloadCRC: crc32.ChecksumIEEE(payload.Bytes()),
	}
	if pr, ok := c.(registry.ParamsReporter); ok {
		h.Params = pr.CheckpointParams()
	}
	if sv, ok := c.(model.StructureVersioner); ok {
		h.StructVersion = sv.StructureVersion()
		h.HasStructVersion = true
	}
	if err := writeHead(w, Magic, h); err != nil {
		return fmt.Errorf("persist: write header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("persist: write payload: %w", err)
	}
	return nil
}

// ReadEnvelope reads exactly one envelope from r, verifying magic,
// version and payload checksum. It consumes precisely the envelope's
// bytes, so callers may read several envelopes off one stream.
func ReadEnvelope(r io.Reader) (*Envelope, error) {
	env, _, err := readEnvelope(r)
	return env, err
}

// ReadRaw reads exactly one envelope off r — any reader, not just a
// file: an HTTP body, a pipe, a stacked checkpoint stream — returning
// its verbatim wire bytes alongside the decoded header. The bytes are
// fully validated (magic, version, header decode, payload checksum)
// before they are returned, so a relay can cache and re-serve them
// without ever reconstructing the model: this is what the network
// serving tier's trainer→replica envelope streaming is built on. Like
// ReadEnvelope it consumes precisely the envelope's bytes.
func ReadRaw(r io.Reader) ([]byte, Header, error) {
	env, raw, err := readEnvelope(r)
	if err != nil {
		return nil, Header{}, err
	}
	return raw, env.Header, nil
}

// readEnvelope reads one envelope into a single buffer holding its
// verbatim wire bytes; the returned envelope's payload is the buffer's
// tail.
func readEnvelope(r io.Reader) (*Envelope, []byte, error) {
	var h Header
	raw, err := readHead(r, Magic, "checkpoint", maxHeaderLen, &h)
	if err != nil {
		return nil, nil, err
	}
	if h.Version > FormatVersion {
		return nil, nil, fmt.Errorf("persist: checkpoint format version %d is newer than this build supports (max %d) — upgrade the library to load it", h.Version, FormatVersion)
	}
	if h.Version < FormatVersion {
		return nil, nil, fmt.Errorf("persist: checkpoint format version %d predates the envelope format %d and is no longer readable", h.Version, FormatVersion)
	}
	if h.PayloadLen < 0 || h.PayloadLen > maxPayloadLen {
		return nil, nil, fmt.Errorf("persist: implausible payload length %d: corrupt checkpoint", h.PayloadLen)
	}
	if raw, err = readN(r, raw, h.PayloadLen); err != nil {
		return nil, nil, fmt.Errorf("persist: read payload (%d bytes): %w (truncated checkpoint)", h.PayloadLen, err)
	}
	payload := raw[len(raw)-int(h.PayloadLen):]
	if crc := crc32.ChecksumIEEE(payload); crc != h.PayloadCRC {
		return nil, nil, fmt.Errorf("persist: payload checksum mismatch (got %08x, header says %08x): corrupt checkpoint", crc, h.PayloadCRC)
	}
	return &Envelope{Header: h, Payload: payload}, raw, nil
}

// writeHead writes the framing every record of this package starts
// with: the magic, the big-endian length of the gob header, the header.
func writeHead(w io.Writer, magic string, h any) error {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write(make([]byte, 4))
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		return err
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[len(magic):], uint32(len(b)-len(magic)-4))
	_, err := w.Write(b)
	return err
}

// readHead reads the framing writeHead wrote — checking the magic and
// bounding the header length by maxLen — and decodes the header into h.
// It returns the verbatim bytes read; what names the record in errors.
func readHead(r io.Reader, magic, what string, maxLen uint32, h any) ([]byte, error) {
	raw := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(r, raw[:len(magic)]); err != nil {
		return nil, fmt.Errorf("persist: read %s magic: %w (truncated or not a %s)", what, err, what)
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("persist: bad magic %q: not a %s (want %q)", raw[:len(magic)], what, magic)
	}
	if _, err := io.ReadFull(r, raw[len(magic):]); err != nil {
		return nil, fmt.Errorf("persist: read %s header length: %w (truncated %s)", what, err, what)
	}
	hlen := binary.BigEndian.Uint32(raw[len(magic):])
	if hlen == 0 || hlen > maxLen {
		return nil, fmt.Errorf("persist: implausible %s header length %d: corrupt %s", what, hlen, what)
	}
	raw, err := readN(r, raw, int64(hlen))
	if err != nil {
		return nil, fmt.Errorf("persist: read %s header: %w (truncated %s)", what, err, what)
	}
	if err := gob.NewDecoder(bytes.NewReader(raw[len(magic)+4:])).Decode(h); err != nil {
		return nil, fmt.Errorf("persist: decode %s header: %w (corrupt %s)", what, err, what)
	}
	return raw, nil
}

// firstChunk is the most readN allocates ahead of the bytes it was told
// to expect: an honest section up to this size reads in one allocation,
// and a forged length field costs at most this much before the input
// runs dry.
const firstChunk = 1 << 20

// readN appends exactly n bytes of r to buf. The buffer grows as the
// bytes arrive — by up to firstChunk first, then by doubling — so what
// it allocates is bounded by what r delivers, not by what n claims.
func readN(r io.Reader, buf []byte, n int64) ([]byte, error) {
	want := int64(len(buf)) + n
	for int64(len(buf)) < want {
		if len(buf) == cap(buf) {
			next := make([]byte, len(buf), min(int64(len(buf)+max(len(buf), firstChunk)), want))
			copy(next, buf)
			buf = next
		}
		m, err := io.ReadFull(r, buf[len(buf):min(int64(cap(buf)), want)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Load reads one envelope and reconstructs the model it describes via
// the loader registered under the envelope's model name. The caller
// never names a type: the envelope is fully self-describing.
func Load(r io.Reader) (model.Classifier, error) {
	env, err := ReadEnvelope(r)
	if err != nil {
		return nil, err
	}
	return LoadEnvelope(env)
}

// LoadEnvelope reconstructs the model of an already-read envelope.
func LoadEnvelope(env *Envelope) (model.Classifier, error) {
	h := env.Header
	if err := h.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("persist: checkpoint schema: %w", err)
	}
	loader, ok := registry.LoaderFor(h.Model)
	if !ok {
		return nil, fmt.Errorf("persist: no checkpoint loader registered for model %q (registered loaders handle every repro.Models entry; external learners must registry.RegisterLoader)", h.Model)
	}
	c, err := loader(h.Schema, h.Params, bytes.NewReader(env.Payload))
	if err != nil {
		return nil, fmt.Errorf("persist: load %s: %w", h.Model, err)
	}
	if c.Name() != h.Model {
		return nil, fmt.Errorf("persist: loader for %q reconstructed a model named %q: checkpoint/registration mismatch", h.Model, c.Name())
	}
	return c, nil
}

// SniffEnvelope reports whether the next bytes of a buffered reader
// start a checkpoint envelope (as opposed to, e.g., a delta envelope).
// It does not consume input.
func SniffEnvelope(br *bufio.Reader) bool {
	peek, err := br.Peek(len(Magic))
	return err == nil && string(peek) == Magic
}
