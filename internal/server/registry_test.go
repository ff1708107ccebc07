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

	"repro/internal/serve"
)

// Registry health is computed at listing time: heartbeat freshness
// (TTL), the replica's own readiness, and the envelope-version lag
// gate — and long-silent entries are reaped.
func TestRegistryHealthGating(t *testing.T) {
	clock := time.Unix(1000, 0)
	r := NewRegistry(RegistryConfig{TTL: time.Second, MaxVersionLag: 2})
	r.now = func() time.Time { return clock }

	r.Upsert(ReplicaAnnounce{ID: "a", URL: "http://a", Version: 10, HasVersion: true, Ready: true})
	r.Upsert(ReplicaAnnounce{ID: "b", URL: "http://b", Version: 7, HasVersion: true, Ready: true})
	r.Upsert(ReplicaAnnounce{ID: "c", URL: "http://c", Version: 10, HasVersion: true, Ready: false})

	list := r.List(10, true)
	if len(list) != 3 {
		t.Fatalf("%d replicas listed, want 3", len(list))
	}
	byID := map[string]ReplicaInfo{}
	for _, info := range list {
		byID[info.ID] = info
	}
	if !byID["a"].Healthy {
		t.Fatal("fresh, ready, current replica not healthy")
	}
	if byID["b"].Healthy || byID["b"].LagVersions != 3 {
		t.Fatalf("replica 3 versions behind a lag gate of 2 listed healthy: %+v", byID["b"])
	}
	if byID["c"].Healthy {
		t.Fatal("not-ready (draining) replica listed healthy")
	}

	// Heartbeat goes stale: past the TTL the replica is unhealthy, past
	// 10x the TTL it is reaped from the registry entirely.
	clock = clock.Add(1500 * time.Millisecond)
	if info := r.List(10, true)[0]; info.ID != "a" || info.Healthy {
		t.Fatalf("stale replica still healthy: %+v", info)
	}
	r.Upsert(ReplicaAnnounce{ID: "a", URL: "http://a", Version: 10, HasVersion: true, Ready: true})
	if info := r.List(10, true)[0]; !info.Healthy {
		t.Fatal("refreshed heartbeat did not restore health")
	}
	clock = clock.Add(11 * time.Second)
	if got := len(r.List(10, true)); got != 0 {
		t.Fatalf("%d entries survived 10x TTL silence", got)
	}
	if r.Len() != 0 {
		t.Fatal("reap did not delete entries")
	}

	// Lag gate disabled: any version lag is fine.
	r2 := NewRegistry(RegistryConfig{TTL: time.Second})
	r2.now = func() time.Time { return clock }
	r2.Upsert(ReplicaAnnounce{ID: "z", URL: "http://z", Version: 1, HasVersion: true, Ready: true})
	if info := r2.List(1000, true)[0]; !info.Healthy {
		t.Fatalf("lag gate fired while disabled: %+v", info)
	}
}

// The registry endpoints end to end: POST /v1/replicas registers and
// heartbeats, GET lists with the trainer's version, Leaving removes.
func TestReplicaEndpoints(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	srv, ts := newTestServer(t, sc, Config{})
	trainerV, _ := sc.StructureVersion()

	resp := postJSON(t, ts.URL+"/v1/replicas", ReplicaAnnounce{
		ID: "rep-1", URL: "http://rep-1:9000", Version: trainerV, HasVersion: true, Ready: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.Status)
	}
	var list ReplicaList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !list.HasTrainerVersion || list.TrainerVersion != trainerV {
		t.Fatalf("announce response trainer version %d, want %d", list.TrainerVersion, trainerV)
	}
	if len(list.Replicas) != 1 || !list.Replicas[0].Healthy {
		t.Fatalf("announce response: %+v", list.Replicas)
	}

	get, err := http.Get(ts.URL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(get.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if len(list.Replicas) != 1 || list.Replicas[0].ID != "rep-1" {
		t.Fatalf("GET list: %+v", list.Replicas)
	}
	if st := srv.Status(); st.ReplicasTotal != 1 || st.ReplicasHealthy != 1 {
		t.Fatalf("statusz replica counts: %+v", st)
	}

	// A malformed announce is rejected.
	bad, err := http.Post(ts.URL+"/v1/replicas", "application/json", bytes.NewReader([]byte(`{"url":"no id"}`)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, bad.Body)
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("id-less announce answered %s", bad.Status)
	}

	// Leaving deregisters immediately.
	resp = postJSON(t, ts.URL+"/v1/replicas", ReplicaAnnounce{ID: "rep-1", Leaving: true})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if srv.Registry().Len() != 0 {
		t.Fatal("leaving announce did not deregister")
	}
}

// RunHeartbeats keeps a replica registered and sends the leaving
// announce on shutdown.
func TestRunHeartbeats(t *testing.T) {
	sc := newTrainedScorer(t, 20)
	srv, ts := newTestServer(t, sc, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunHeartbeats(ctx, nil, ts.URL, 10*time.Millisecond, func() ReplicaAnnounce {
			return ReplicaAnnounce{ID: "hb-1", URL: "http://hb-1", Ready: true}
		})
	}()
	deadline := time.Now().Add(3 * time.Second)
	for srv.Registry().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never registered")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if srv.Registry().Len() != 0 {
		t.Fatal("leaving announce on shutdown did not deregister")
	}
}

// gatedRestoreScorer blocks Restore until released, so a test can
// observe readiness mid-install.
type gatedRestoreScorer struct {
	serve.Scorer
	gate    chan struct{} // Restore waits on this
	entered chan struct{} // closed when Restore is reached
	once    sync.Once
}

func (g *gatedRestoreScorer) Restore(r io.Reader) error {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.Scorer.Restore(r)
}

// Drain on swap: while an envelope restores through /v1/swap the
// server reports not-ready (503 /healthz, still live), and readiness
// returns once the install finishes.
func TestDrainOnSwapReadiness(t *testing.T) {
	inner := newTrainedScorer(t, 20)
	var env bytes.Buffer
	if err := inner.Checkpoint(&env); err != nil {
		t.Fatal(err)
	}
	gs := &gatedRestoreScorer{
		Scorer:  inner,
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
	srv, ts := newTestServer(t, gs, Config{})

	if !srv.Ready() {
		t.Fatal("fresh server not ready")
	}
	health := func() (int, Health) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}
	if code, h := health(); code != http.StatusOK || !h.Live || !h.Ready {
		t.Fatalf("healthy server: code %d, %+v", code, h)
	}

	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		resp, err := http.Post(ts.URL+"/v1/swap", ContentTypeEnvelope, bytes.NewReader(env.Bytes()))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-gs.entered // the restore is in flight, holding the drain

	if srv.Ready() {
		t.Fatal("server ready mid-restore")
	}
	if code, h := health(); code != http.StatusServiceUnavailable || !h.Live || h.Ready {
		t.Fatalf("draining server: code %d, %+v (want 503, live, not ready)", code, h)
	}

	close(gs.gate)
	<-swapDone
	deadline := time.Now().Add(2 * time.Second)
	for !srv.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready after the install finished")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := health(); code != http.StatusOK {
		t.Fatalf("healed server /healthz %d", code)
	}
}

// A Follower wired with a Drainer gates readiness around each install
// (the same drain-on-swap contract, driven by the pull loop).
func TestFollowerDrainsServerDuringInstall(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	_, trainerTS := newTestServer(t, trainer, Config{})

	inner := newTrainedScorer(t, 10)
	gs := &gatedRestoreScorer{
		Scorer:  inner,
		gate:    make(chan struct{}),
		entered: make(chan struct{}),
	}
	replicaSrv := New(gs, Config{})
	defer replicaSrv.Close()

	f := NewFollower(trainerTS.URL, gs, FollowConfig{
		Interval: 5 * time.Millisecond,
		Timeout:  2 * time.Second,
		Drainer:  replicaSrv,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	<-gs.entered // install in flight
	if replicaSrv.Ready() {
		t.Fatal("replica server ready while an envelope installs")
	}
	close(gs.gate)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := f.InstalledVersion(); ok && replicaSrv.Ready() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never returned to ready after install")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}
