package persist

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/model"
)

// BundleMagic identifies a composite checkpoint: a header plus a counted
// sequence of member envelopes (see the package doc's wire layout).
const BundleMagic = "REPROBND"

// bundleVersion versions the bundle header layout.
const bundleVersion = 1

// Bundle bounds. Meta carries the composite's own state (a racer's
// prequential windows and detectors), so it may run to megabytes; readN
// still allocates only as its bytes arrive.
const (
	maxBundleKindLen = 64
	maxBundleMembers = 1 << 12
	maxBundleMetaLen = 1 << 24
)

// checkBundle bounds the lengths and the member count of a bundle header.
func checkBundle(kindLen, members, metaLen uint64) error {
	if kindLen == 0 || kindLen > maxBundleKindLen {
		return fmt.Errorf("persist: implausible bundle kind length %d: corrupt bundle", kindLen)
	}
	if members < 1 || members > maxBundleMembers {
		return fmt.Errorf("persist: implausible bundle member count %d: corrupt bundle", members)
	}
	if metaLen > maxBundleMetaLen {
		return fmt.Errorf("persist: implausible bundle meta length %d: corrupt bundle", metaLen)
	}
	return nil
}

// Bundle is one decoded composite checkpoint: every member envelope has
// been read, checksummed and reconstructed.
type Bundle struct {
	Kind    string
	Meta    []byte
	Members []model.Classifier
}

// WriteBundle writes a composite checkpoint of the given kind: the
// header carrying meta, then members, each the wire bytes of exactly one
// envelope as Save writes it.
func WriteBundle(w io.Writer, kind string, meta []byte, members [][]byte) error {
	if err := checkBundle(uint64(len(kind)), uint64(len(members)), uint64(len(meta))); err != nil {
		return err
	}
	head := binary.BigEndian.AppendUint32([]byte(BundleMagic), bundleVersion)
	head = append(binary.BigEndian.AppendUint32(head, uint32(len(kind))), kind...)
	head = binary.BigEndian.AppendUint32(head, uint32(len(members)))
	head = binary.BigEndian.AppendUint32(head, uint32(len(meta)))
	if _, err := w.Write(append(head, meta...)); err != nil {
		return fmt.Errorf("persist: write bundle header: %w", err)
	}
	for i, m := range members {
		if _, err := w.Write(m); err != nil {
			return fmt.Errorf("persist: write bundle member %d: %w", i, err)
		}
	}
	return nil
}

// ReadBundle reads exactly one bundle off r and reconstructs every
// member before it returns, so a caller validates the whole composite
// before it touches any live state. It consumes precisely the bundle's
// bytes: whatever is stacked behind it on r stays readable.
func ReadBundle(r io.Reader) (*Bundle, error) {
	b, envs, _, err := readBundle(r)
	if err != nil {
		return nil, err
	}
	b.Members = make([]model.Classifier, len(envs))
	for i, env := range envs {
		if b.Members[i], err = LoadEnvelope(env); err != nil {
			return nil, fmt.Errorf("persist: %s bundle member %d: %w", b.Kind, i, err)
		}
	}
	return b, nil
}

// readBundle reads and verifies a bundle's framing and member envelopes
// without reconstructing any model; it also returns each member's
// verbatim envelope bytes. Every header field has exactly one encoding,
// so an accepted bundle re-encodes to the bytes it consumed.
func readBundle(r io.Reader) (*Bundle, []*Envelope, [][]byte, error) {
	head := make([]byte, len(BundleMagic)+8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, nil, nil, fmt.Errorf("persist: read bundle header: %w (truncated or not a bundle)", err)
	}
	if magic := head[:len(BundleMagic)]; string(magic) != BundleMagic {
		return nil, nil, nil, fmt.Errorf("persist: bad magic %q: not a bundle (want %q)", magic, BundleMagic)
	}
	version, kindLen := binary.BigEndian.Uint32(head[len(BundleMagic):]), binary.BigEndian.Uint32(head[len(BundleMagic)+4:])
	if version != bundleVersion {
		return nil, nil, nil, fmt.Errorf("persist: unsupported bundle version %d (this build reads %d)", version, bundleVersion)
	}
	if err := checkBundle(uint64(kindLen), 1, 0); err != nil {
		return nil, nil, nil, err
	}
	// The kind runs up to the member count and the meta length.
	rest := make([]byte, kindLen+8)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, nil, nil, fmt.Errorf("persist: read bundle header: %w (truncated bundle)", err)
	}
	kind := string(rest[:kindLen])
	members, metaLen := binary.BigEndian.Uint32(rest[kindLen:]), binary.BigEndian.Uint32(rest[kindLen+4:])
	if err := checkBundle(uint64(kindLen), uint64(members), uint64(metaLen)); err != nil {
		return nil, nil, nil, err
	}
	meta, err := readN(r, nil, int64(metaLen))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: read bundle meta (%d bytes): %w (truncated bundle)", metaLen, err)
	}
	envs, raws := make([]*Envelope, members), make([][]byte, members)
	for i := range envs {
		if envs[i], raws[i], err = readEnvelope(r); err != nil {
			return nil, nil, nil, fmt.Errorf("persist: %s bundle member %d of %d: %w", kind, i, members, err)
		}
	}
	return &Bundle{Kind: kind, Meta: meta}, envs, raws, nil
}
