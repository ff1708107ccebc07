package repro

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/server"
)

// The network serving tier: an HTTP prediction service over any Scorer,
// plus the trainer→replica envelope-streaming protocol. See
// internal/server for the endpoint contract; cmd/dmtserve is the
// ready-made binary, examples/serving the two-process demo.
type (
	// PredictionServer serves /v1/predict, /v1/predict_batch, /v1/swap,
	// /v1/envelope, /healthz and /statusz for one Scorer, coalescing
	// concurrent single-row requests into batch predictions and shedding
	// load beyond its in-flight bound with 429 + Retry-After.
	PredictionServer = server.Server
	// ServerConfig tunes coalescing (window, max batch), admission
	// control (max in-flight, retry hint) and body/long-poll limits. The
	// zero value is production-sane.
	ServerConfig = server.Config
	// ServerStatus is the /statusz document.
	ServerStatus = server.Status
	// FollowConfig tunes a replica's envelope-follow loop: poll
	// interval, long-poll duration, retry backoff, circuit breaker,
	// drain hooks and failure callbacks.
	FollowConfig = server.FollowConfig
	// Follower is the resilient replica pull loop: exponential backoff
	// with full jitter, Retry-After-aware 429/503 handling, a circuit
	// breaker against a down trainer, and per-cause error counters
	// (FollowStats). It implements StalenessSource.
	Follower = server.Follower
	// FollowStats snapshots a Follower's lifetime counters.
	FollowStats = server.FollowStats
	// FetchError classifies one envelope-fetch failure (dial, timeout,
	// status, decode, restore) and carries any Retry-After hint.
	FetchError = server.FetchError
	// FollowCause is the failure class of a FetchError.
	FollowCause = server.Cause
	// BreakerState is a circuit breaker's state (closed, open,
	// half-open).
	BreakerState = server.BreakerState
	// ServerHealth is the /healthz document: live / ready / degraded
	// plus the staleness lag of a degraded replica.
	ServerHealth = server.Health
	// StalenessSource feeds a PredictionServer its degradation verdict
	// (a Follower is one; see PredictionServer.SetStalenessSource).
	StalenessSource = server.StalenessSource
	// RegistryConfig tunes the trainer-side replica registry (heartbeat
	// TTL, envelope-version lag gate).
	RegistryConfig = server.RegistryConfig
	// ReplicaInfo is one registry entry with its health verdict.
	ReplicaInfo = server.ReplicaInfo
	// ReplicaAnnounce is the heartbeat body a replica POSTs to the
	// trainer's /v1/replicas.
	ReplicaAnnounce = server.ReplicaAnnounce
	// ReplicaList is the GET /v1/replicas document.
	ReplicaList = server.ReplicaList
	// FaultInjector injects deterministic, seedable faults into HTTP
	// round trips and listeners — the chaos harness behind `dmtserve
	// -chaos` and the chaos test suite.
	FaultInjector = faults.Injector
	// FaultRule is one fault class with its probability, schedule
	// window and parameters.
	FaultRule = faults.Rule
	// FaultKind is the fault class of a FaultRule.
	FaultKind = faults.Kind
)

// Fault classes for FaultRule.
const (
	FaultDrop     = faults.Drop
	FaultReset    = faults.Reset
	FaultDelay    = faults.Delay
	FaultStatus   = faults.Status
	FaultTruncate = faults.Truncate
)

// Circuit-breaker states, re-exported for callers observing
// OnStateChange transitions.
const (
	BreakerClosed   = server.BreakerClosed
	BreakerOpen     = server.BreakerOpen
	BreakerHalfOpen = server.BreakerHalfOpen
)

// NewPredictionServer wraps a Scorer in an HTTP prediction service. The
// returned server exposes Handler() for mounting into any mux; callers
// own the http.Server. Close it when retiring the scorer.
func NewPredictionServer(s Scorer, cfg ServerConfig) *PredictionServer {
	return server.New(s, cfg)
}

// ServePrediction serves an already-built PredictionServer on addr
// until ctx is cancelled, then drains with a graceful shutdown. A
// non-nil ln overrides addr with a prepared listener — the hook for
// wrapping the accept path in a FaultInjector's Listener. The caller
// keeps ownership of ps (wire up SetStalenessSource, Registry, or a
// Follower's Drainer before serving); ps is closed on the way out so
// parked long-polls release promptly and pending predictions fail fast
// with 503 instead of hanging into the shutdown deadline.
func ServePrediction(ctx context.Context, addr string, ps *PredictionServer, ln net.Listener) error {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return err
		}
	}
	hs := &http.Server{Handler: ps.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		ps.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		return ctx.Err()
	}
}

// NewFollower builds a replica's pull loop against a trainer's
// /v1/envelope endpoint: whenever the trainer's structure version moves
// past the last installed one, the new envelope is streamed into s via
// Restore — reads served from s never fail during an install. Start it
// with Run, observe it through Stats/State/Staleness, and feed it to
// PredictionServer.SetStalenessSource so degraded responses are
// stamped with their lag.
func NewFollower(trainerURL string, s Scorer, cfg FollowConfig) *Follower {
	return server.NewFollower(trainerURL, s, cfg)
}

// RunHeartbeats announces state() to the trainer's registry every
// interval until ctx is cancelled, then deregisters with one leaving
// announce. A nil client gets a sane default.
func RunHeartbeats(ctx context.Context, client *http.Client, trainerURL string, interval time.Duration, state func() ReplicaAnnounce) {
	server.RunHeartbeats(ctx, client, trainerURL, interval, state)
}

// NewFaultInjector builds a deterministic fault injector: the same seed
// and traffic order replay the same fault sequence. Wrap a transport
// with RoundTripper or an accept path with Listener.
func NewFaultInjector(seed int64, rules ...FaultRule) *FaultInjector {
	return faults.New(seed, rules...)
}

// ParseFaults parses a chaos spec like
// "drop@0.2,reset@0.1,delay=50ms@0.3,status=503@0.1,truncate=256@0.1"
// into fault rules (the `dmtserve -chaos` grammar).
func ParseFaults(spec string) ([]FaultRule, error) {
	return faults.Parse(spec)
}

// BootstrapScorer fetches the trainer's current envelope once and
// builds a local Scorer from it — how a stateless replica starts with
// no model of its own. A racer's checkpoint reconstructs a racer;
// publishEvery sets the snapshot publish cadence of a reconstructed
// single model. It returns the envelope's version and bytes too: seed
// them into a Follower with SeedInstalled so its very first poll can
// negotiate delta chains (GET /v1/envelope?since=V) instead of
// refetching the full envelope. A nil client gets a sane default; pass
// one for custom timeouts or a fault-injecting transport.
func BootstrapScorer(ctx context.Context, client *http.Client, trainerURL string, publishEvery int) (Scorer, uint64, []byte, error) {
	return server.BootstrapRaw(ctx, client, trainerURL, publishEvery)
}

// ScorerFromCheckpoint reconstructs a Scorer from checkpoint bytes
// written by any Scorer's Checkpoint — the single envelope of a locked
// or snapshot scorer, or the bundle of a racer.
func ScorerFromCheckpoint(r io.Reader, publishEvery int) (Scorer, error) {
	return serve.FromCheckpoint(r, publishEvery)
}
