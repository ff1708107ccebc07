package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
)

// parseChain decodes a delta-chain response body into its deltas.
func parseChain(t *testing.T, raw []byte) []*persist.Delta {
	t.Helper()
	br := bytes.NewReader(raw)
	var ds []*persist.Delta
	for br.Len() > 0 {
		d, err := persist.ReadDelta(br)
		if err != nil {
			t.Fatalf("delta %d of chain: %v", len(ds), err)
		}
		ds = append(ds, d)
	}
	return ds
}

// A ?since= fetch between two captured versions answers with a delta
// chain whose application to the old envelope is byte-identical to the
// full envelope at the head version.
func TestEnvelopeSinceServesDeltaChain(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	srv, ts := newTestServer(t, trainer, Config{})

	raw0, v0, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	v1 := advanceVersion(t, trainer, v0, 31)
	rawFull, vFull, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if vFull != v1 {
		t.Fatalf("full fetch at version %d, trainer is at %d", vFull, v1)
	}

	chain, vHead, isDelta, err := FetchSince(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0, v0)
	if err != nil {
		t.Fatal(err)
	}
	if !isDelta {
		t.Fatalf("?since=%d answered with a full envelope despite history covering it", v0)
	}
	if vHead != v1 {
		t.Fatalf("chain head version %d, want %d", vHead, v1)
	}
	got, err := persist.ApplyChain(raw0, parseChain(t, chain)...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rawFull) {
		t.Fatal("base+chain is not byte-identical to the full envelope")
	}
	if len(chain) >= len(rawFull) {
		t.Fatalf("delta chain (%d bytes) is no smaller than the full envelope (%d bytes)", len(chain), len(rawFull))
	}
	if srv.Status().DeltasServed == 0 {
		t.Fatal("statusz does not count the served delta")
	}

	// The raw HTTP response carries the protocol headers.
	resp, err := http.Get(ts.URL + "/v1/envelope?since=" + strconv.FormatUint(v0, 10))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeDeltaChain {
		t.Fatalf("content type %q", ct)
	}
	if base := resp.Header.Get(DeltaBaseHeader); base != strconv.FormatUint(v0, 10) {
		t.Fatalf("%s = %q, want %d", DeltaBaseHeader, base, v0)
	}
	if n, err := strconv.Atoi(resp.Header.Get(DeltaCountHeader)); err != nil || n < 1 {
		t.Fatalf("%s = %q", DeltaCountHeader, resp.Header.Get(DeltaCountHeader))
	}
}

// A ?since= base several captured versions back answers with one link
// per captured structure change, stacked in one body: the header count
// matches the links the body holds, and both persist.ApplyChain and the
// follower's own chain reader rebuild the full head envelope byte for
// byte.
func TestEnvelopeSinceServesMultiLinkChain(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, trainer, Config{})

	raw0, v0, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Capture three structure changes past v0: each full fetch records
	// its version in the trainer's delta history.
	cur := v0
	var rawFull []byte
	for i := 0; i < 3; i++ {
		cur = advanceVersion(t, trainer, cur, int64(61+i))
		var v uint64
		rawFull, v, err = Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != cur {
			t.Fatalf("full fetch at version %d, trainer is at %d", v, cur)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/envelope?since=" + strconv.FormatUint(v0, 10))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeDeltaChain {
		t.Fatalf("?since=%d answered with content type %q, want a delta chain", v0, ct)
	}
	links := parseChain(t, chain)
	n, err := strconv.Atoi(resp.Header.Get(DeltaCountHeader))
	if err != nil || n < 2 || n != len(links) {
		t.Fatalf("%s = %q, body holds %d links; want the same count, at least 2", DeltaCountHeader, resp.Header.Get(DeltaCountHeader), len(links))
	}
	got, err := persist.ApplyChain(raw0, links...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, rawFull) {
		t.Fatal("base+chain is not byte-identical to the full envelope")
	}

	f := NewFollower(ts.URL, newTrainedScorer(t, 1), FollowConfig{})
	f.SeedInstalled(v0, raw0)
	head, err := f.applyDeltaChain(chain, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, rawFull) {
		t.Fatal("the follower's chain reader does not rebuild the full envelope")
	}
}

// A base that has been compacted out of the bounded history answers
// with a full envelope, not an error.
func TestEnvelopeSinceCompactedServesFull(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, trainer, Config{EnvelopeHistory: 2})

	_, v0, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Capture three more versions: the two-entry ring evicts v0.
	cur := v0
	for i := 0; i < 3; i++ {
		cur = advanceVersion(t, trainer, cur, int64(40+i))
		if _, _, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0); err != nil {
			t.Fatal(err)
		}
	}
	raw, vHead, isDelta, err := FetchSince(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0, v0)
	if err != nil {
		t.Fatal(err)
	}
	if isDelta {
		t.Fatalf("compacted base %d still answered with a delta chain", v0)
	}
	if vHead != cur {
		t.Fatalf("full fallback at version %d, trainer is at %d", vHead, cur)
	}
	if _, err := LoadEnvelope(raw); err != nil {
		t.Fatalf("full fallback does not load: %v", err)
	}
}

// A swap invalidates the delta history: a follower holding a
// pre-swap version gets a full envelope, never a chain keyed to the
// replaced model.
func TestEnvelopeSinceInvalidatedBySwap(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, trainer, Config{})

	raw0, v0, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	advanceVersion(t, trainer, v0, 51)
	if _, _, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0); err != nil {
		t.Fatal(err)
	}
	// Swap the model back to the v0 envelope; history must reset.
	resp, err := http.Post(ts.URL+"/v1/swap", ContentTypeEnvelope, bytes.NewReader(raw0))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("swap answered %s", resp.Status)
	}
	_, _, isDelta, err := FetchSince(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0, v0)
	if err != nil {
		t.Fatal(err)
	}
	if isDelta {
		t.Fatal("post-swap ?since= served a chain from the invalidated history")
	}
}

// A follower seeded from BootstrapRaw negotiates deltas from its first
// poll: converging past a structural change installs via a delta chain,
// and the converged replica's own checkpoint is byte-identical to the
// trainer's envelope.
func TestFollowerDeltaInstall(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	srv, ts := newTestServer(t, trainer, Config{})

	replica, v0, raw0, err := BootstrapRaw(context.Background(), nil, ts.URL, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(ts.URL, replica, FollowConfig{Interval: 5 * time.Millisecond, Wait: time.Second})
	f.SeedInstalled(v0, raw0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	v1 := advanceVersion(t, trainer, v0, 61)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := f.InstalledVersion(); ok && v == v1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged to %d: %+v", v1, f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	st := f.Stats()
	if st.DeltaInstalls == 0 {
		t.Fatalf("converged without a delta install: %+v", st)
	}
	if st.DeltaFallbacks != 0 {
		t.Fatalf("healthy follow fell back %d times: %+v", st.DeltaFallbacks, st)
	}
	if srv.Status().DeltasServed == 0 {
		t.Fatal("trainer served no delta chains")
	}

	// Byte-identical convergence: the replica's own checkpoint equals
	// the trainer's full envelope at the head version.
	rawHead, _, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	var repCkpt bytes.Buffer
	if err := replica.Checkpoint(&repCkpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repCkpt.Bytes(), rawHead) {
		t.Fatal("delta-converged replica checkpoint differs from the trainer envelope")
	}
}

// An unusable delta chain (wrong base, corrupt links) makes the
// follower fall back to a full fetch without tripping the breaker.
func TestFollowerDeltaFallbackOnBadChain(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	var env bytes.Buffer
	if err := trainer.Checkpoint(&env); err != nil {
		t.Fatal(err)
	}
	rawFull := env.Bytes()

	badChains := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/envelope", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("since") != "" && badChains == 0 {
			badChains++
			w.Header().Set("Content-Type", ContentTypeDeltaChain)
			w.Header().Set(VersionHeader, "99")
			w.Header().Set(DeltaBaseHeader, r.URL.Query().Get("since"))
			w.Header().Set(DeltaCountHeader, "1")
			fmt.Fprint(w, "REPRODLT garbage that is not a delta envelope")
			return
		}
		w.Header().Set("Content-Type", ContentTypeEnvelope)
		w.Header().Set(VersionHeader, "99")
		w.Write(rawFull)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	replica := newTrainedScorer(t, 10)
	f := NewFollower(ts.URL, replica, FollowConfig{Interval: 2 * time.Millisecond, Timeout: 2 * time.Second})
	f.SeedInstalled(1, rawFull) // pretend we hold version 1's bytes

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := f.InstalledVersion(); ok && v == 99 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered from the bad chain: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	st := f.Stats()
	if st.DeltaFallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1: %+v", st.DeltaFallbacks, st)
	}
	if st.BreakerOpens != 0 || st.State != BreakerClosed {
		t.Fatalf("delta fallback penalised the breaker: %+v", st)
	}
	if st.Errors() != 0 {
		t.Fatalf("delta fallback counted as a fetch failure: %+v", st)
	}
}

// A delta chain cut after a whole link still parses and applies, but to
// an older envelope than the head version it is stamped with. The
// follower must compare the links it got with DeltaCountHeader, fall
// back to a full fetch, and converge byte-identically on the head —
// not install the truncated chain and then long-poll "at head" forever.
func TestFollowerRejectsTruncatedChain(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, trainer, Config{})

	replica, v0, raw0, err := BootstrapRaw(context.Background(), nil, ts.URL, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Capture three structure changes past v0, so ?since=v0 answers
	// with a three-link chain.
	cur := v0
	for i := 0; i < 3; i++ {
		cur = advanceVersion(t, trainer, cur, int64(71+i))
		if _, _, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0); err != nil {
			t.Fatal(err)
		}
	}

	// The proxy passes every response through, except that it cuts a
	// multi-link chain to its first link and keeps every header.
	var truncated atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(ts.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if resp.Header.Get("Content-Type") == ContentTypeDeltaChain {
			br := bytes.NewReader(body)
			if _, err := persist.ReadDelta(br); err == nil && br.Len() > 0 {
				body = body[:len(body)-br.Len()]
				truncated.Add(1)
			}
		}
		for k, vs := range resp.Header {
			if k != "Content-Length" {
				w.Header()[k] = vs
			}
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(proxy.Close)

	f := NewFollower(proxy.URL, replica, FollowConfig{Interval: 2 * time.Millisecond, Timeout: 2 * time.Second})
	f.SeedInstalled(v0, raw0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := f.InstalledVersion(); ok && v == cur {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never converged to %d: %+v", cur, f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	if truncated.Load() == 0 {
		t.Fatal("the proxy never truncated a chain")
	}
	st := f.Stats()
	if st.DeltaFallbacks == 0 {
		t.Fatalf("a truncated chain was installed without a fallback: %+v", st)
	}
	if st.Errors() != 0 || st.BreakerOpens != 0 {
		t.Fatalf("delta fallback counted as a fetch failure: %+v", st)
	}
	rawHead, _, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	var repCkpt bytes.Buffer
	if err := replica.Checkpoint(&repCkpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repCkpt.Bytes(), rawHead) {
		t.Fatal("replica checkpoint differs from the trainer's head envelope")
	}
}
