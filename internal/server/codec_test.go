package server

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// binaryHeader is an application/x-repro-rows body that announces an
// n×m matrix and carries none of its cells.
func binaryHeader(n, m uint32) []byte {
	var head [8]byte
	binary.LittleEndian.PutUint32(head[:4], n)
	binary.LittleEndian.PutUint32(head[4:], m)
	return head[:]
}

// A body that is only a header claiming millions of cells is refused
// without the server allocating what the header claims: memory follows
// the bytes that arrive.
func TestBinaryHeaderOnlyBodyAllocatesLittle(t *testing.T) {
	srv := New(newTrainedScorer(t, 10), Config{})
	defer srv.Close()
	h := srv.Handler()
	for _, tc := range []struct {
		path string
		n, m uint32
	}{
		{"/v1/predict", maxBinaryCells, 1},       // rejected from the header
		{"/v1/predict", 1, maxBinaryCells},       // one row, cells never arrive
		{"/v1/predict_batch", maxBinaryCells, 1}, // every cell missing
		{"/v1/predict_batch", 1 << 10, 1 << 13},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(binaryHeader(tc.n, tc.m)))
		req.Header.Set("Content-Type", ContentTypeRows)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %dx%d header only: %d, want 400", tc.path, tc.n, tc.m, rec.Code)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s %dx%d header only allocated %d bytes", tc.path, tc.n, tc.m, grew)
		}
	}
}

// FuzzDecodeBinaryRows holds the application/x-repro-rows decoder to
// four rules: it never panics; what it accepts re-encodes to the bytes
// it consumed; it allocates in proportion to its input, not to what the
// header claims; and a truncated body is an error, never partial rows.
func FuzzDecodeBinaryRows(f *testing.F) {
	// The committed corpus under testdata/fuzz adds truncated, trailing,
	// special-float and header-only bodies to this seed.
	X, _ := seaRows(32, 8) // the rows of TestPredictBatchBinaryRoundTrip
	f.Add(encodeBinaryRows(X))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := decodeBinaryRows(bytes.NewReader(data), maxBinaryCells)
		runtime.ReadMemStats(&after)
		// Cells are read a bounded chunk at a time; everything else is
		// proportional to the bytes that arrived.
		limit := 4*uint64(len(data)) + 2*8*binaryChunkCells + 64<<10
		if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			if rows != nil {
				t.Fatalf("error %v came with %d rows", err, len(rows))
			}
			return
		}
		used := 8 + 8*len(rows)*len(rows[0])
		if got := encodeBinaryRows(rows); !bytes.Equal(got, data[:used]) {
			t.Fatalf("decoded %dx%d matrix re-encodes differently", len(rows), len(rows[0]))
		}
		if short, err := decodeBinaryRows(bytes.NewReader(data[:used-1]), maxBinaryCells); err == nil || short != nil {
			t.Fatalf("truncated body decoded to %d rows, err %v", len(short), err)
		}
	})
}
