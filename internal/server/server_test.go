package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"

	// Register the learners the tests serve.
	_ "repro/internal/hoeffding"
)

// newTrainedScorer builds a snapshot scorer over a trained VFDT on the
// SEA concept (the same setup the serve package's own tests use).
func newTrainedScorer(t testing.TB, batches int) serve.Scorer {
	t.Helper()
	schema := synth.NewSEA(100, 0.1, 1).Schema()
	s, err := serve.New(serve.Config{Model: "VFDT (MC)", Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	gen := synth.NewSEA(batches*100, 0.1, 11)
	for i := 0; i < batches; i++ {
		b, err := stream.NextBatch(gen, 100)
		if err != nil {
			t.Fatal(err)
		}
		s.Learn(b)
	}
	return s
}

func newTestServer(t testing.TB, sc serve.Scorer, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(sc, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func seaRows(n int, seed int64) ([][]float64, []int) {
	gen := synth.NewSEA(n+100, 0, seed)
	b, err := stream.NextBatch(gen, n)
	if err != nil {
		panic(err)
	}
	return b.X, b.Y
}

func TestPredictJSONRoundTrip(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, sc, Config{})
	X, _ := seaRows(20, 5)
	for i, x := range X {
		resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{X: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("row %d: %s", i, resp.Status)
		}
		var pr predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := sc.Predict(x); pr.Y != want {
			t.Fatalf("row %d: served %d, scorer says %d", i, pr.Y, want)
		}
	}
}

func TestPredictProba(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, sc, Config{})
	X, _ := seaRows(5, 6)
	for _, x := range X {
		resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{X: x, Proba: true})
		var pr predictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(pr.Proba) != sc.Schema().NumClasses {
			t.Fatalf("proba has %d entries, want %d", len(pr.Proba), sc.Schema().NumClasses)
		}
		var sum float64
		for _, p := range pr.Proba {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("proba sums to %v", sum)
		}
	}
}

func TestPredictBatchJSONAndConsistency(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, sc, Config{})
	X, _ := seaRows(64, 7)
	resp := postJSON(t, ts.URL+"/v1/predict_batch", batchRequest{Rows: X})
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.Status)
	}
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := sc.PredictBatch(X, nil)
	if len(br.Y) != len(want) {
		t.Fatalf("%d predictions, want %d", len(br.Y), len(want))
	}
	for i := range want {
		if br.Y[i] != want[i] {
			t.Fatalf("row %d: served %d, scorer says %d", i, br.Y[i], want[i])
		}
	}
}

// encodeBinaryRows builds an application/x-repro-rows body.
func encodeBinaryRows(X [][]float64) []byte {
	n, m := len(X), len(X[0])
	out := make([]byte, 8+8*n*m)
	binary.LittleEndian.PutUint32(out, uint32(n))
	binary.LittleEndian.PutUint32(out[4:], uint32(m))
	for i, row := range X {
		for j, v := range row {
			binary.LittleEndian.PutUint64(out[8+8*(i*m+j):], math.Float64bits(v))
		}
	}
	return out
}

func decodeBinaryPreds(t *testing.T, r io.Reader) []int {
	t.Helper()
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 4 {
		t.Fatalf("short response: %d bytes", len(raw))
	}
	n := binary.LittleEndian.Uint32(raw)
	if len(raw) != int(4+4*n) {
		t.Fatalf("response framing: %d bytes for %d preds", len(raw), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[4+4*i:])))
	}
	return out
}

func TestPredictBatchBinaryRoundTrip(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, sc, Config{})
	X, _ := seaRows(32, 8)
	resp, err := http.Post(ts.URL+"/v1/predict_batch", ContentTypeRows, bytes.NewReader(encodeBinaryRows(X)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypePreds {
		t.Fatalf("Content-Type %q", ct)
	}
	got := decodeBinaryPreds(t, resp.Body)
	want := sc.PredictBatch(X, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: binary %d, scorer %d", i, got[i], want[i])
		}
	}
}

// Wrong-width rows are rejected with a descriptive 400, not served.
func TestSchemaValidationRejectsWrongWidth(t *testing.T) {
	sc := newTrainedScorer(t, 10)
	_, ts := newTestServer(t, sc, Config{})
	for _, tc := range []struct {
		url  string
		body any
	}{
		{ts.URL + "/v1/predict", predictRequest{X: []float64{1, 2}}},
		{ts.URL + "/v1/predict_batch", batchRequest{Rows: [][]float64{{1, 2, 3}, {1, 2}}}},
	} {
		resp := postJSON(t, tc.url, tc.body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s (%s)", tc.url, resp.Status, msg)
		}
		if !strings.Contains(string(msg), "features") {
			t.Fatalf("%s: undescriptive error %q", tc.url, msg)
		}
	}
}

// Concurrent single-row requests coalesce into PredictBatch dispatches:
// far fewer batches than rows, every answer still exact.
func TestCoalescingMergesConcurrentSingles(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	srv, ts := newTestServer(t, sc, Config{CoalesceWindow: 2 * time.Millisecond, MaxBatch: 32})
	X, _ := seaRows(128, 9)
	want := sc.PredictBatch(X, nil)

	var wg sync.WaitGroup
	errs := make(chan error, len(X))
	for i, x := range X {
		wg.Add(1)
		go func(i int, x []float64) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{X: x})
			var pr predictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if pr.Y != want[i] {
				errs <- fmt.Errorf("row %d: got %d want %d", i, pr.Y, want[i])
			}
		}(i, x)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Status()
	if st.CoalescedRows != uint64(len(X)) {
		t.Fatalf("coalesced %d rows, want %d", st.CoalescedRows, len(X))
	}
	if st.CoalescedBatches >= st.CoalescedRows {
		t.Fatalf("no coalescing happened: %d batches for %d rows", st.CoalescedBatches, st.CoalescedRows)
	}
	t.Logf("coalesced %d rows into %d batches", st.CoalescedRows, st.CoalescedBatches)
}

// blockingScorer gates PredictBatch so a test can hold requests in
// flight deliberately. A non-nil entered is sent to as each call
// reaches the gate.
type blockingScorer struct {
	serve.Scorer
	gate    chan struct{}
	entered chan struct{}
}

func (b *blockingScorer) PredictBatch(X [][]float64, out []int) []int {
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	<-b.gate
	return b.Scorer.PredictBatch(X, out)
}

// Requests beyond MaxInFlight get an immediate 429 with a Retry-After
// hint instead of queueing without bound.
func TestBackpressure429(t *testing.T) {
	bs := &blockingScorer{Scorer: newTrainedScorer(t, 10), gate: make(chan struct{})}
	srv, ts := newTestServer(t, bs, Config{MaxInFlight: 2, CoalesceWindow: -1, RetryAfter: 3 * time.Second})
	X, _ := seaRows(3, 10)

	// Fill both admission slots with requests stuck in PredictBatch.
	started := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			started <- struct{}{}
			resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{X: x})
			resp.Body.Close()
		}(X[i])
	}
	<-started
	<-started
	// Wait until both slots are actually claimed.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Status().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatal("slots never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{X: X[2]})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload answered %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	close(bs.gate)
	wg.Wait()
	if srv.Status().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

// The acceptance-criteria test: a hot swap through /v1/swap drops zero
// reads. Reader goroutines hammer /v1/predict and /v1/predict_batch
// while the model is swapped repeatedly; every response must be 200
// with a well-formed prediction.
func TestHotSwapZeroFailedReads(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, sc, Config{MaxInFlight: 256})

	// Capture two envelopes from differently trained models to swap
	// between.
	var envA, envB bytes.Buffer
	if err := sc.Checkpoint(&envA); err != nil {
		t.Fatal(err)
	}
	other := newTrainedScorer(t, 60)
	if err := other.Checkpoint(&envB); err != nil {
		t.Fatal(err)
	}

	X, _ := seaRows(16, 12)
	stop := make(chan struct{})
	var failures atomic.Uint64
	var reads atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				if i%2 == 0 {
					resp = postJSON(t, ts.URL+"/v1/predict", predictRequest{X: X[(g+i)%len(X)]})
				} else {
					resp = postJSON(t, ts.URL+"/v1/predict_batch", batchRequest{Rows: X})
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				reads.Add(1)
			}
		}(g)
	}

	envs := [][]byte{envA.Bytes(), envB.Bytes()}
	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts.URL+"/v1/swap", ContentTypeEnvelope, bytes.NewReader(envs[i%2]))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: %s (%s)", i, resp.Status, msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d of %d reads failed across 10 hot swaps", failures.Load(), reads.Load())
	}
	t.Logf("%d reads served across 10 hot swaps, zero failures", reads.Load())
}

// A corrupt envelope is rejected by /v1/swap and the live model keeps
// serving untouched.
func TestSwapRejectsCorruptEnvelope(t *testing.T) {
	sc := newTrainedScorer(t, 20)
	_, ts := newTestServer(t, sc, Config{})
	X, _ := seaRows(4, 13)
	before := sc.PredictBatch(X, nil)

	var env bytes.Buffer
	if err := sc.Checkpoint(&env); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), env.Bytes()...)
	bad[len(bad)/2] ^= 0xff
	resp, err := http.Post(ts.URL+"/v1/swap", ContentTypeEnvelope, bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt swap answered %s, want 422", resp.Status)
	}
	after := sc.PredictBatch(X, nil)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("rejected swap changed the live model")
		}
	}
}

func TestStatuszAndHealthz(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, sc, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.Status)
	}

	X, _ := seaRows(3, 14)
	postJSON(t, ts.URL+"/v1/predict_batch", batchRequest{Rows: X}).Body.Close()

	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Model != "VFDT (MC)" {
		t.Fatalf("model %q", st.Model)
	}
	if st.Schema.NumFeatures != 3 || st.Schema.NumClasses != 2 {
		t.Fatalf("schema %+v", st.Schema)
	}
	if !st.HasStructureVersion || st.StructureVersion == 0 {
		t.Fatalf("structure version missing: %+v", st)
	}
	if st.Publishes == 0 {
		t.Fatal("snapshot publish count missing from statusz")
	}
	if st.ServedRows < 3 {
		t.Fatalf("served_rows %d", st.ServedRows)
	}
	if st.MaxInFlight != 256 || st.MaxBatch != 64 {
		t.Fatalf("config defaults not surfaced: %+v", st)
	}
}

// /v1/envelope serves a loadable envelope stamped with the structure
// version, 304s while the version is unchanged, and long-polls until
// training moves it.
func TestEnvelopeVersioningAndLongPoll(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	_, ts := newTestServer(t, sc, Config{})

	raw, v, err := Fetch(context.Background(), http.DefaultClient, ts.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw == nil || v == 0 {
		t.Fatalf("fetch: %d bytes, version %d", len(raw), v)
	}
	if _, err := LoadEnvelope(raw); err != nil {
		t.Fatalf("served envelope does not load: %v", err)
	}

	// Same version → 304, nil bytes.
	raw2, v2, err := Fetch(context.Background(), http.DefaultClient, ts.URL, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw2 != nil || v2 != v {
		t.Fatalf("unchanged version re-served: %d bytes, version %d", len(raw2), v2)
	}

	// Long poll: a trainer goroutine advances the structure version
	// while the fetch is parked.
	go func() {
		time.Sleep(50 * time.Millisecond)
		gen := synth.NewSEA(40000, 0.1, 99)
		for i := 0; i < 400; i++ {
			b, err := stream.NextBatch(gen, 100)
			if err != nil {
				return
			}
			sc.Learn(b)
			if cur, _ := sc.StructureVersion(); cur != v {
				return
			}
		}
	}()
	raw3, v3, err := Fetch(context.Background(), http.DefaultClient, ts.URL, v, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if raw3 == nil {
		t.Fatal("long poll expired without the version moving (no split in 40k rows?)")
	}
	if v3 == v {
		t.Fatalf("long poll released at unchanged version %d", v3)
	}
	if _, err := LoadEnvelope(raw3); err != nil {
		t.Fatalf("long-polled envelope does not load: %v", err)
	}
}

// The replica-follow protocol end to end: a trainer process serves
// /v1/envelope; a replica bootstraps from it, follows, and serves
// identical predictions; when the trainer's model advances, the
// replica converges to the new version with zero read downtime.
func TestFollowReplicaConvergence(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	_, trainerTS := newTestServer(t, trainer, Config{})

	replica, v0, _, err := BootstrapRaw(context.Background(), nil, trainerTS.URL, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v0 == 0 {
		t.Fatal("bootstrap version 0")
	}
	X, _ := seaRows(32, 15)
	if want, got := trainer.PredictBatch(X, nil), replica.PredictBatch(X, nil); !equalInts(want, got) {
		t.Fatal("bootstrapped replica disagrees with trainer")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	installed := make(chan uint64, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewFollower(trainerTS.URL, replica, FollowConfig{
			Interval:  20 * time.Millisecond,
			Wait:      2 * time.Second,
			OnInstall: func(v uint64) { installed <- v },
		}).Run(ctx)
	}()

	// Replica reads must not fail while envelopes install underneath.
	readStop := make(chan struct{})
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for {
			select {
			case <-readStop:
				return
			default:
			}
			if got := replica.PredictBatch(X, nil); len(got) != len(X) {
				t.Error("replica read failed mid-install")
				return
			}
		}
	}()

	// Advance the trainer until its structure version moves.
	gen := synth.NewSEA(40000, 0.1, 77)
	var vTrained uint64
	for i := 0; i < 400; i++ {
		b, err := stream.NextBatch(gen, 100)
		if err != nil {
			t.Fatal(err)
		}
		trainer.Learn(b)
		if cur, _ := trainer.StructureVersion(); cur != v0 {
			vTrained = cur
			break
		}
	}
	if vTrained == 0 {
		t.Fatal("trainer version never moved")
	}

	// Wait for the replica to install a version past v0.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case v := <-installed:
			if v != v0 {
				goto converged
			}
		case <-deadline:
			t.Fatal("replica never converged past the bootstrap version")
		}
	}
converged:
	close(readStop)
	<-readDone
	cancel()
	<-done

	// The replica now predicts from the trainer's advanced state: its
	// predictions match a model loaded from the trainer's live
	// envelope.
	raw, _, err := Fetch(context.Background(), http.DefaultClient, trainerTS.URL, ^uint64(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := serve.FromCheckpoint(bytes.NewReader(raw), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want, got := ref.PredictBatch(X, nil), replica.PredictBatch(X, nil); !equalInts(want, got) {
		t.Fatal("converged replica disagrees with trainer envelope")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
