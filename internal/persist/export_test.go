package persist

import "io"

// Test hooks for the external fuzz targets.

// FirstChunk is readN's up-front allocation bound.
const FirstChunk = firstChunk

// ReadBundleFrame reads a bundle's framing and member envelopes without
// reconstructing any model, returning the members' verbatim envelopes.
func ReadBundleFrame(r io.Reader) (*Bundle, [][]byte, error) {
	b, _, raws, err := readBundle(r)
	return b, raws, err
}
