package eval

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/persist"
)

// Model-state streams: beside each cell's Result checkpoint the Runner
// can record the model itself over the course of the run — one capture
// per ModelCheckpointEvery iterations, written as a self-describing
// concatenation of full checkpoint envelopes (keyframes) and REPRODLT
// delta envelopes between them. The two record kinds share a stream and
// are distinguished by magic, so replay needs no index: a keyframe
// resets the reconstruction base, a delta advances it, and every record
// is checksum-pinned, so a replayed capture is byte-identical to the
// full save the Runner would have written at that iteration.

// modelStream incrementally writes one cell's model-state stream.
type modelStream struct {
	w             io.Writer
	keyframeEvery int
	last          []byte // previous capture's full envelope bytes
	sinceKeyframe int
	captures      int
	deltas        int
}

func newModelStream(w io.Writer, keyframeEvery int) *modelStream {
	if keyframeEvery < 1 {
		keyframeEvery = 1
	}
	return &modelStream{w: w, keyframeEvery: keyframeEvery}
}

// capture appends the classifier's current state: a full keyframe on
// the first capture and every keyframeEvery-th thereafter (or whenever
// a delta cannot be computed), a delta envelope against the previous
// capture in between.
func (ms *modelStream) capture(c model.Classifier) error {
	var buf bytes.Buffer
	if err := persist.Save(&buf, c); err != nil {
		return err
	}
	raw := buf.Bytes()
	asKeyframe := ms.last == nil || ms.sinceKeyframe >= ms.keyframeEvery-1
	if !asKeyframe {
		d, err := persist.MakeDelta(ms.last, raw)
		if err != nil {
			// A capture that cannot be diffed degrades to a keyframe
			// instead of failing.
			asKeyframe = true
		} else if err := persist.WriteDelta(ms.w, d); err != nil {
			return err
		} else {
			ms.sinceKeyframe++
			ms.deltas++
		}
	}
	if asKeyframe {
		if _, err := ms.w.Write(raw); err != nil {
			return err
		}
		ms.sinceKeyframe = 0
	}
	ms.last = raw
	ms.captures++
	return nil
}

// ReplayModelStream reads a model-state stream and returns the full
// envelope bytes of every capture, in order: keyframes verbatim, deltas
// applied to the running base with the chain validation of
// persist.ApplyChain. Every returned element loads via persist.Load.
func ReplayModelStream(r io.Reader) ([][]byte, error) {
	br := bufio.NewReader(r)
	var out [][]byte
	var cur []byte
	for {
		if _, err := br.Peek(1); err == io.EOF {
			return out, nil
		}
		switch {
		case persist.SniffEnvelope(br):
			raw, _, err := persist.ReadRaw(br)
			if err != nil {
				return out, fmt.Errorf("eval: model stream capture %d: %w", len(out), err)
			}
			cur = raw
		case persist.SniffDelta(br):
			if cur == nil {
				return out, fmt.Errorf("eval: model stream starts with a delta (capture %d): no keyframe to apply it to", len(out))
			}
			d, err := persist.ReadDelta(br)
			if err != nil {
				return out, fmt.Errorf("eval: model stream capture %d: %w", len(out), err)
			}
			head, err := persist.ApplyChain(cur, d)
			if err != nil {
				return out, fmt.Errorf("eval: model stream capture %d: %w", len(out), err)
			}
			cur = head
		default:
			return out, fmt.Errorf("eval: model stream capture %d: unrecognised record magic", len(out))
		}
		out = append(out, cur)
	}
}
