package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/synth"
)

// benchLoad drives the full HTTP stack — client, coalescer, scorer —
// with parallel requests while a trainer goroutine keeps Learning, and
// reports p50/p99 request latency and sustained QPS under concurrent
// training, plus rows per coalesced dispatch where the coalescer is in
// the path.
func benchLoad(b *testing.B, makeBody func(i int) (string, []byte), path string) {
	sc := newTrainedScorer(b, 120)
	srv := New(sc, Config{CoalesceWindow: time.Millisecond, MaxBatch: 64, MaxInFlight: 1024})
	defer srv.Close()
	hs := newBenchHTTP(b, srv)

	// Concurrent training: the trainer feeds the scorer one 100-row SEA
	// batch every 2ms (a 50k rows/s arrival rate) for the whole
	// measurement, so every latency sample includes live Learn and
	// snapshot-publish traffic. Paced, not busy-looped: an unpaced
	// trainer on a small machine measures scheduler starvation, not
	// serving latency.
	stop := make(chan struct{})
	var trainWG sync.WaitGroup
	trainWG.Add(1)
	go func() {
		defer trainWG.Done()
		gen := synth.NewSEA(1_000_000, 0.1, 31)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			batch, err := stream.NextBatch(gen, 100)
			if err != nil {
				gen.Reset()
				continue
			}
			sc.Learn(batch)
		}
	}()
	defer func() { close(stop); trainWG.Wait() }()

	var mu sync.Mutex
	var all []time.Duration
	// Concurrency beyond GOMAXPROCS: request latency is dominated by
	// waiting (coalesce window, network, scorer), so even a single-core
	// runner serves many in-flight clients.
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		client := &http.Client{}
		lat := make([]time.Duration, 0, 1024)
		i := 0
		for pb.Next() {
			ct, body := makeBody(i)
			i++
			t0 := time.Now()
			resp, err := client.Post(hs+path, ct, bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("%s: %s", path, resp.Status)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lat = append(lat, time.Since(t0))
		}
		mu.Lock()
		all = append(all, lat...)
		mu.Unlock()
	})
	elapsed := time.Since(start)
	b.StopTimer()

	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(all)-1))
		return float64(all[idx])
	}
	b.ReportMetric(quantile(0.50), "p50-ns")
	b.ReportMetric(quantile(0.99), "p99-ns")
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "qps")
	if n := srv.co.batches.Load(); n > 0 {
		b.ReportMetric(float64(srv.co.rows.Load())/float64(n), "rows/batch")
	}
}

// newBenchHTTP serves the handler on a real socket (httptest pulls in
// per-request bookkeeping we do not want timed) and returns its URL.
func newBenchHTTP(b *testing.B, srv *Server) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	b.Cleanup(func() { hs.Close() })
	return "http://" + ln.Addr().String()
}

// BenchmarkServerPredictOp measures one single-row JSON /v1/predict
// round trip under parallel load: singles coalesce into PredictBatch
// dispatches while a trainer goroutine keeps the model learning.
func BenchmarkServerPredictOp(b *testing.B) {
	X, _ := seaRows(64, 41)
	bodies := make([][]byte, len(X))
	for i, x := range X {
		bodies[i], _ = json.Marshal(predictRequest{X: x})
	}
	benchLoad(b, func(i int) (string, []byte) {
		return "application/json", bodies[i%len(bodies)]
	}, "/v1/predict")
}

// BenchmarkServerPredictBatchOp measures a 64-row binary
// /v1/predict_batch round trip under the same concurrent-training load.
func BenchmarkServerPredictBatchOp(b *testing.B) {
	X, _ := seaRows(64, 43)
	body := encodeBinaryRows(X)
	benchLoad(b, func(int) (string, []byte) {
		return ContentTypeRows, body
	}, "/v1/predict_batch")
}

// BenchmarkServerCoalesceOp isolates the coalescer (no HTTP): parallel
// in-process single predictions against the live scorer.
func BenchmarkServerCoalesceOp(b *testing.B) {
	sc := newTrainedScorer(b, 120)
	srv := New(sc, Config{CoalesceWindow: 100 * time.Microsecond, MaxBatch: 64})
	defer srv.Close()
	X, _ := seaRows(64, 47)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := srv.co.predict(context.Background(), X[i%len(X)], false); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if srv.co.batches.Load() > 0 {
		b.ReportMetric(float64(srv.co.rows.Load())/float64(srv.co.batches.Load()), "rows/batch")
	}
}
