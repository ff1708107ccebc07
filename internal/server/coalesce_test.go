package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// predictOnce posts one single-row JSON predict and fails the test
// unless it is answered 200.
func predictOnce(t *testing.T, url string, x []float64) {
	t.Helper()
	resp := postJSON(t, url+"/v1/predict", predictRequest{X: x})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("predict: %s", resp.Status)
	}
}

// An isolated single-row predict is flushed at once: with nothing else
// on its way there is nobody to wait for, however long the window.
func TestIsolatedPredictDoesNotWait(t *testing.T) {
	sc := newTrainedScorer(t, 20)
	const window = 500 * time.Millisecond
	srv, ts := newTestServer(t, sc, Config{CoalesceWindow: window})
	X, _ := seaRows(20, 13)
	for i, x := range X {
		t0 := time.Now()
		predictOnce(t, ts.URL, x)
		if d := time.Since(t0); d > window/2 {
			t.Fatalf("request %d took %v against a %v window", i, d, window)
		}
	}
	st := srv.Status()
	if st.CoalesceWaits != 0 {
		t.Fatalf("%d batches waited for companions; sequential singles have none", st.CoalesceWaits)
	}
	if st.CoalescedRows != uint64(len(X)) {
		t.Fatalf("coalesced %d rows, want %d", st.CoalescedRows, len(X))
	}
}

// Singles that queue up behind a busy PredictBatch are already there
// when it returns: they leave together in the next dispatch, without
// waiting out the window.
func TestQueuedSinglesFlushTogether(t *testing.T) {
	bs := &blockingScorer{Scorer: newTrainedScorer(t, 20), gate: make(chan struct{}), entered: make(chan struct{}, 4)}
	const window = 5 * time.Second
	srv, ts := newTestServer(t, bs, Config{CoalesceWindow: window})
	const n = 16
	X, _ := seaRows(n+1, 14)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); predictOnce(t, ts.URL, X[0]) }()
	<-bs.entered // the dispatcher is now held inside PredictBatch
	for _, x := range X[1:] {
		wg.Add(1)
		go func(x []float64) { defer wg.Done(); predictOnce(t, ts.URL, x) }(x)
	}
	waitFor(t, "all singles queued", func() bool { return len(srv.co.jobs) == n })

	t0 := time.Now()
	close(bs.gate)
	wg.Wait()
	if d := time.Since(t0); d > window/2 {
		t.Fatalf("queued singles answered after %v against a %v window", d, window)
	}
	st := srv.Status()
	if st.CoalescedBatches > 2 || st.CoalescedRows != n+1 {
		t.Fatalf("%d rows in %d dispatches, want %d rows in at most 2", st.CoalescedRows, st.CoalescedBatches, n+1)
	}
	if st.CoalesceWaits != 0 {
		t.Fatalf("%d batches waited with nothing on its way", st.CoalesceWaits)
	}
}

// A batch waits only for a row that is on its way, and stops waiting
// the moment that row is withdrawn. Every way a predict can leave
// without reaching the queue — bad JSON, wrong width, a bad binary
// header, a proba request, a client that gives up mid-body — balances
// the pending count, so afterwards an isolated predict still never
// waits.
func TestPendingCountBalanced(t *testing.T) {
	sc := newTrainedScorer(t, 20)
	const window = 5 * time.Second
	srv, ts := newTestServer(t, sc, Config{CoalesceWindow: window})
	X, _ := seaRows(2, 15)
	body := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, tc := range []struct {
		name, ct string
		body     []byte
		want     int
	}{
		{"bad JSON", "application/json", []byte(`{"x":[1,`), http.StatusBadRequest},
		{"wrong width", "application/json", body(predictRequest{X: []float64{1, 2}}), http.StatusBadRequest},
		{"two binary rows", ContentTypeRows, encodeBinaryRows(X), http.StatusBadRequest},
		{"proba", "application/json", body(predictRequest{X: X[0], Proba: true}), http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/predict", tc.ct, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: %s, want %d", tc.name, resp.Status, tc.want)
		}
	}
	if p := srv.co.pending.Load(); p != 0 {
		t.Fatalf("pending = %d after rejected and proba requests", p)
	}

	// A client stalls half way through its body: its row is on its way.
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/predict", pr)
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write([]byte(`{"x":[`)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stalled row to be pending", func() bool { return srv.co.pending.Load() == 1 })

	// A single arriving now waits for it...
	answered := make(chan struct{})
	go func() { defer close(answered); predictOnce(t, ts.URL, X[1]) }()
	waitFor(t, "the batch to wait", func() bool { return srv.Status().CoalesceWaits == 1 })
	select {
	case <-answered:
		t.Fatal("the batch flushed while a row was on its way")
	case <-time.After(20 * time.Millisecond):
	}
	// ...until the stalled client gives up and its row is withdrawn.
	t0 := time.Now()
	cancel()
	pw.Close()
	<-answered
	if d := time.Since(t0); d > window/2 {
		t.Fatalf("the waiting batch flushed %v after the withdrawal, window %v", d, window)
	}
	<-stalled
	waitFor(t, "the cancelled row to be withdrawn", func() bool { return srv.co.pending.Load() == 0 })

	t0 = time.Now()
	predictOnce(t, ts.URL, X[0])
	if d := time.Since(t0); d > window/2 {
		t.Fatalf("isolated predict took %v after the failed requests", d)
	}
	if w := srv.Status().CoalesceWaits; w != 1 {
		t.Fatalf("coalesce waits = %d, want only the one deliberate wait", w)
	}
}
