package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/serve"
)

// Cause classifies a fetch/install failure for the per-cause counters.
type Cause string

const (
	// CauseDial: the connection never produced a response (refused,
	// dropped, reset).
	CauseDial Cause = "dial"
	// CauseTimeout: a context deadline or net timeout expired.
	CauseTimeout Cause = "timeout"
	// CauseStatus: the trainer answered with a non-2xx/304 status.
	CauseStatus Cause = "status"
	// CauseDecode: the response arrived but could not be read or was
	// missing its version stamp.
	CauseDecode Cause = "decode"
	// CauseRestore: the envelope bytes were rejected by the scorer's
	// Restore (framing/CRC/validation) — a truncated or corrupt
	// envelope is never installed.
	CauseRestore Cause = "restore"
)

// FetchError is a classified failure of one envelope fetch.
type FetchError struct {
	// Cause is the failure class.
	Cause Cause
	// Status is the HTTP status code when Cause == CauseStatus.
	Status int
	// RetryAfter is the server's Retry-After hint (zero when absent) —
	// 429/503 responses carry it, and the Follower honours it over its
	// own backoff.
	RetryAfter time.Duration
	// Err is the underlying error.
	Err error
}

// Error implements error.
func (e *FetchError) Error() string { return fmt.Sprintf("follow: %s: %v", e.Cause, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *FetchError) Unwrap() error { return e.Err }

// classify maps a transport error to its cause.
func classify(err error) Cause {
	if errors.Is(err, context.DeadlineExceeded) {
		return CauseTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return CauseTimeout
	}
	return CauseDial
}

// httpClient is the one client constructor of the replica protocol:
// every caller (Fetch, Bootstrap, Follower, heartbeats, ReplicaSet)
// goes through it instead of growing its own ad-hoc http.Client.
func httpClient(transport http.RoundTripper, timeout time.Duration) *http.Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &http.Client{Timeout: timeout, Transport: transport}
}

// Drainer is how an install signals "stop routing new work to me":
// BeginDrain before the scorer restore, EndDrain after. The Server
// implements it (readiness flips, the registry health-gates the
// replica out), and in-flight reads still finish — draining gates new
// picks, not running requests.
type Drainer interface {
	BeginDrain()
	EndDrain()
}

// FollowConfig tunes a replica's envelope-following loop. The zero
// value is production-sane: 500ms poll interval, per-fetch timeouts,
// exponential backoff with full jitter between retries, and a circuit
// breaker that opens after 5 consecutive failures.
type FollowConfig struct {
	// Interval is the pause between polls when the trainer answered
	// immediately (304 or a fresh envelope). Default 500ms.
	Interval time.Duration
	// Wait is the long-poll duration passed as ?wait= — the trainer
	// holds the request open until the structure version moves or the
	// wait expires. Zero disables long polling (plain poll-on-interval).
	Wait time.Duration
	// Timeout is the per-fetch budget (client timeout and context
	// deadline). Default Wait + 30s, so a long poll always fits.
	Timeout time.Duration
	// Client is the HTTP client used for fetches. Nil builds one from
	// Transport and Timeout via the shared constructor.
	Client *http.Client
	// Transport, when Client is nil, is the transport of the built
	// client — the fault-injection hook (nil = http.DefaultTransport).
	Transport http.RoundTripper
	// BackoffBase is the first retry backoff (default 100ms); each
	// consecutive failure doubles it up to BackoffMax (default 10s),
	// and the actual delay is drawn uniformly from [0, d) (full
	// jitter). A 429/503 Retry-After hint overrides a shorter backoff.
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (default 10s).
	BackoffMax time.Duration
	// BreakerThreshold is how many consecutive failures open the
	// circuit (default 5).
	BreakerThreshold int
	// BreakerCooldown is the open -> half-open delay (default 2s).
	BreakerCooldown time.Duration
	// Seed seeds the jitter source, so a test's retry schedule is
	// deterministic. Default 1.
	Seed int64
	// Drainer, when non-nil, brackets every Restore: BeginDrain before,
	// EndDrain after — the replica reports not-ready while an envelope
	// installs (drain on swap).
	Drainer Drainer
	// NoDelta disables delta negotiation: every fetch transfers a full
	// envelope. Default off — a follower that still holds its last
	// installed envelope bytes asks the trainer for a ?since= delta
	// chain and falls back to a full fetch automatically when the chain
	// cannot be served or applied.
	NoDelta bool
	// OnInstall, when non-nil, is called after each successful envelope
	// install with the version it was stamped with.
	OnInstall func(version uint64)
	// OnError, when non-nil, observes every classified fetch/install
	// failure — the counterpart of the per-cause counters for logs.
	OnError func(cause Cause, err error)
	// OnStateChange, when non-nil, observes circuit-breaker
	// transitions. It must not call back into the Follower.
	OnStateChange func(from, to BreakerState)
}

func (c FollowConfig) withDefaults() FollowConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Wait + 30*time.Second
	}
	if c.Client == nil {
		c.Client = httpClient(c.Transport, c.Timeout)
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = c.BackoffBase
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fetch pulls the trainer's current envelope from baseURL (the root the
// trainer's Handler is mounted at) and returns the raw envelope bytes
// plus the version they were stamped with. A version argument of
// ^uint64(0) means "whatever you have"; otherwise the trainer may
// answer 304 Not Modified (returned as nil bytes, nil error). Failures
// come back as a *FetchError classifying the cause and carrying any
// Retry-After hint; the request is bound to ctx end to end.
func Fetch(ctx context.Context, client *http.Client, baseURL string, version uint64, wait time.Duration) ([]byte, uint64, error) {
	raw, v, _, err := fetchEnvelope(ctx, client, baseURL, version, wait, 0, false)
	return raw, v, err
}

// FetchSince is Fetch with delta negotiation: since is the version of
// the full envelope bytes the caller still holds, passed as ?since= so
// the trainer may answer with a delta chain instead of a full envelope.
// isDelta reports which one the body is: when true, the bytes are a
// concatenation of delta envelopes to apply against the caller's base
// (see persist.ApplyChain) and the returned version is the chain head.
func FetchSince(ctx context.Context, client *http.Client, baseURL string, version uint64, wait time.Duration, since uint64) (raw []byte, v uint64, isDelta bool, err error) {
	return fetchEnvelope(ctx, client, baseURL, version, wait, since, true)
}

func fetchEnvelope(ctx context.Context, client *http.Client, baseURL string, version uint64, wait time.Duration, since uint64, haveSince bool) ([]byte, uint64, bool, error) {
	if client == nil {
		client = httpClient(nil, wait+30*time.Second)
	}
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, 0, false, &FetchError{Cause: CauseDecode, Err: fmt.Errorf("bad base URL: %w", err)}
	}
	u = u.JoinPath("/v1/envelope")
	q := u.Query()
	if version != ^uint64(0) {
		q.Set("version", strconv.FormatUint(version, 10))
	}
	if wait > 0 {
		q.Set("wait", wait.String())
	}
	if haveSince {
		q.Set("since", strconv.FormatUint(since, 10))
	}
	u.RawQuery = q.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, 0, false, &FetchError{Cause: CauseDecode, Err: err}
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, false, &FetchError{Cause: classify(err), Err: err}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		io.Copy(io.Discard, resp.Body)
		return nil, version, false, nil
	case http.StatusOK:
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, 0, false, &FetchError{
			Cause:      CauseStatus,
			Status:     resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			Err:        fmt.Errorf("%s: %s: %s", u, resp.Status, bytes.TrimSpace(msg)),
		}
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		cause := CauseDecode
		if c := classify(err); c == CauseTimeout {
			cause = c
		}
		return nil, 0, false, &FetchError{Cause: cause, Err: fmt.Errorf("read envelope: %w", err)}
	}
	v, err := strconv.ParseUint(resp.Header.Get(VersionHeader), 10, 64)
	if err != nil {
		return nil, 0, false, &FetchError{Cause: CauseDecode, Err: fmt.Errorf("envelope missing %s header: %w", VersionHeader, err)}
	}
	return raw, v, resp.Header.Get("Content-Type") == ContentTypeDeltaChain, nil
}

// parseRetryAfter reads an RFC 9110 delay-seconds Retry-After value
// (the HTTP-date form is ignored — this protocol only emits seconds).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// FollowStats is a snapshot of a Follower's counters: what happened,
// per cause, instead of silence. All counts are lifetime totals.
type FollowStats struct {
	// Fetches is the number of fetch attempts (including 304s).
	Fetches uint64 `json:"fetches"`
	// Installs is the number of envelopes restored into the scorer.
	Installs uint64 `json:"installs"`
	// NotModified counts 304 answers (polled while unchanged).
	NotModified uint64 `json:"not_modified"`
	// Retries counts backoff sleeps taken after a failure.
	Retries uint64 `json:"retries"`
	// DeltaInstalls counts installs that arrived as delta chains
	// (transferring only what changed); DeltaFallbacks counts delta
	// responses that could not be applied — version gap, rejected base,
	// corrupt link — and were recovered by an immediate full fetch.
	DeltaInstalls  uint64 `json:"delta_installs"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
	// Per-cause failure counters.
	DialErrors    uint64 `json:"dial_errors"`
	TimeoutErrors uint64 `json:"timeout_errors"`
	StatusErrors  uint64 `json:"status_errors"`
	DecodeErrors  uint64 `json:"decode_errors"`
	RestoreErrors uint64 `json:"restore_errors"`
	// BreakerOpens is how many times the circuit opened.
	BreakerOpens uint64 `json:"breaker_opens"`
	// State is the circuit breaker's current state.
	State BreakerState `json:"breaker_state"`
	// InstalledVersion is the last installed envelope version
	// (HasInstalled false while nothing has installed yet).
	InstalledVersion uint64 `json:"installed_version"`
	HasInstalled     bool   `json:"has_installed"`
	// Staleness is how long ago the trainer last answered
	// successfully; Degraded mirrors Staleness()'s breaker-derived
	// verdict.
	Staleness time.Duration `json:"staleness_ns"`
	Degraded  bool          `json:"degraded"`
}

// Errors sums the per-cause failure counters.
func (s FollowStats) Errors() uint64 {
	return s.DialErrors + s.TimeoutErrors + s.StatusErrors + s.DecodeErrors + s.RestoreErrors
}

// Follower runs a replica's resilient pull loop against a trainer's
// /v1/envelope: fetch whenever the trainer's structure version has
// moved past the last installed one, stream the envelope into the
// local scorer via Restore, and absorb failures instead of spinning on
// them — exponential backoff with full jitter between retries,
// Retry-After-aware 429/503 handling, and a circuit breaker that stops
// hammering a down trainer and probes it back half-open. Every failure
// is counted per cause (FollowStats) and surfaced through OnError /
// OnStateChange, and the replica keeps serving its last installed
// snapshot throughout — degradation is observable, never silent.
type Follower struct {
	baseURL string
	sc      serve.Scorer
	cfg     FollowConfig
	br      *breaker
	rng     *rand.Rand // jitter; only touched by the Run goroutine

	// lastRaw holds the full envelope bytes of the last install — the
	// base the next ?since= delta chain is applied against. Only the Run
	// goroutine and pre-Run SeedInstalled touch it.
	lastRaw []byte

	fetches        atomic.Uint64
	installs       atomic.Uint64
	notModified    atomic.Uint64
	retries        atomic.Uint64
	deltaInstalls  atomic.Uint64
	deltaFallbacks atomic.Uint64
	dialErrs       atomic.Uint64
	timeoutErrs    atomic.Uint64
	statusErrs     atomic.Uint64
	decodeErrs     atomic.Uint64
	restoreErrs    atomic.Uint64

	installedVersion atomic.Uint64
	hasInstalled     atomic.Bool
	lastSync         atomic.Int64 // unix nanos of the last successful trainer contact
	started          time.Time
}

// NewFollower builds a Follower for baseURL installing into sc. Run
// starts the loop.
func NewFollower(baseURL string, sc serve.Scorer, cfg FollowConfig) *Follower {
	cfg = cfg.withDefaults()
	f := &Follower{
		baseURL: baseURL,
		sc:      sc,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		started: time.Now(),
	}
	f.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.OnStateChange)
	return f
}

// Stats snapshots the counters.
func (f *Follower) Stats() FollowStats {
	lag, degraded := f.Staleness()
	return FollowStats{
		Fetches:          f.fetches.Load(),
		Installs:         f.installs.Load(),
		NotModified:      f.notModified.Load(),
		Retries:          f.retries.Load(),
		DeltaInstalls:    f.deltaInstalls.Load(),
		DeltaFallbacks:   f.deltaFallbacks.Load(),
		DialErrors:       f.dialErrs.Load(),
		TimeoutErrors:    f.timeoutErrs.Load(),
		StatusErrors:     f.statusErrs.Load(),
		DecodeErrors:     f.decodeErrs.Load(),
		RestoreErrors:    f.restoreErrs.Load(),
		BreakerOpens:     f.br.Opens(),
		State:            f.br.State(),
		InstalledVersion: f.installedVersion.Load(),
		HasInstalled:     f.hasInstalled.Load(),
		Staleness:        lag,
		Degraded:         degraded,
	}
}

// State returns the circuit breaker's current state.
func (f *Follower) State() BreakerState { return f.br.State() }

// InstalledVersion returns the last installed envelope version.
func (f *Follower) InstalledVersion() (uint64, bool) {
	return f.installedVersion.Load(), f.hasInstalled.Load()
}

// SeedInstalled records an envelope installed out of band (a Bootstrap
// that already constructed the scorer) so the follow loop resumes from
// its version instead of refetching, and — given the raw envelope
// bytes — can ask the trainer for delta chains from the first poll.
// Call before Run.
func (f *Follower) SeedInstalled(v uint64, raw []byte) {
	f.lastRaw = raw
	f.installedVersion.Store(v)
	f.hasInstalled.Store(true)
}

// Staleness implements the server's StalenessSource: how long the
// trainer has been silent (time since the last successful contact, or
// since the Follower started if it never reached the trainer), and
// whether the replica is degraded (the breaker is not closed — the
// trainer is unreachable and the replica serves its last snapshot).
func (f *Follower) Staleness() (time.Duration, bool) {
	since := f.started
	if ns := f.lastSync.Load(); ns != 0 {
		since = time.Unix(0, ns)
	}
	return time.Since(since), f.br.State() != BreakerClosed
}

// count bumps the per-cause failure counter.
func (f *Follower) count(c Cause) {
	switch c {
	case CauseDial:
		f.dialErrs.Add(1)
	case CauseTimeout:
		f.timeoutErrs.Add(1)
	case CauseStatus:
		f.statusErrs.Add(1)
	case CauseDecode:
		f.decodeErrs.Add(1)
	case CauseRestore:
		f.restoreErrs.Add(1)
	}
}

// fail records one classified failure: counter, callback, breaker.
func (f *Follower) fail(c Cause, err error) {
	f.count(c)
	if f.cfg.OnError != nil {
		f.cfg.OnError(c, err)
	}
	f.br.failure()
}

// install streams raw into the scorer, draining around the restore so
// the registry stops picking this replica mid-install.
func (f *Follower) install(raw []byte, v uint64) error {
	if d := f.cfg.Drainer; d != nil {
		d.BeginDrain()
		defer d.EndDrain()
	}
	if err := f.sc.Restore(bytes.NewReader(raw)); err != nil {
		return err
	}
	f.installedVersion.Store(v)
	f.hasInstalled.Store(true)
	if f.cfg.OnInstall != nil {
		f.cfg.OnInstall(v)
	}
	return nil
}

// applyDeltaChain parses a delta-chain response body (stacked delta
// envelopes) and applies it to the last installed envelope bytes,
// returning the reconstructed head envelope — byte-identical to the
// full envelope the trainer would have served, or an error when any
// link is truncated, out of order, gapped or keyed to a different base.
func (f *Follower) applyDeltaChain(chain []byte) ([]byte, error) {
	br := bytes.NewReader(chain)
	var ds []*persist.Delta
	for br.Len() > 0 {
		d, err := persist.ReadDelta(br)
		if err != nil {
			return nil, fmt.Errorf("delta chain: %w", err)
		}
		ds = append(ds, d)
	}
	if len(ds) == 0 {
		return nil, errors.New("delta chain: empty body")
	}
	return persist.ApplyChain(f.lastRaw, ds...)
}

// backoffDelay draws the attempt-th retry delay: full jitter over an
// exponentially growing window, uniform in [0, base<<attempt) capped
// at max.
func backoffDelay(rng *rand.Rand, attempt int, base, max time.Duration) time.Duration {
	if attempt > 30 {
		attempt = 30
	}
	d := base << uint(attempt)
	if d <= 0 || d > max {
		d = max
	}
	return time.Duration(rng.Int63n(int64(d)))
}

// sleepCtx sleeps d or returns early with ctx.Err().
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Run executes the pull loop until ctx is cancelled; it only returns
// ctx.Err(). Reads served from the local scorer never fail during an
// install — that is the scorer's hot-swap contract — so a replica
// stays up through every model update and through every trainer
// outage (it keeps serving its last installed state, with Staleness
// reporting the lag).
func (f *Follower) Run(ctx context.Context) error {
	have := ^uint64(0) // sentinel: nothing installed yet
	if v, ok := f.InstalledVersion(); ok {
		have = v
	}
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !f.br.allow() {
			// Circuit open: don't hammer the trainer; re-check on the
			// poll interval until the cooldown admits a probe.
			if err := sleepCtx(ctx, f.cfg.Interval); err != nil {
				return err
			}
			continue
		}
		fctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
		var raw []byte
		var v uint64
		var isDelta bool
		var err error
		if !f.cfg.NoDelta && f.lastRaw != nil && have != ^uint64(0) {
			raw, v, isDelta, err = FetchSince(fctx, f.cfg.Client, f.baseURL, have, f.cfg.Wait, have)
		} else {
			raw, v, err = Fetch(fctx, f.cfg.Client, f.baseURL, have, f.cfg.Wait)
		}
		cancel()
		f.fetches.Add(1)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			f.lastSync.Store(time.Now().UnixNano())
			if raw == nil {
				f.notModified.Add(1)
			} else {
				full := raw
				if isDelta {
					head, derr := f.applyDeltaChain(raw)
					if derr != nil {
						// The chain is unusable (gap, wrong base, corrupt
						// link) but the trainer is reachable: count the
						// fallback, drop the delta base and refetch full
						// immediately — no breaker penalty, no backoff.
						f.deltaFallbacks.Add(1)
						if f.cfg.OnError != nil {
							f.cfg.OnError(CauseDecode, derr)
						}
						f.lastRaw = nil
						f.br.success()
						attempt = 0
						continue
					}
					full = head
				}
				if ierr := f.install(full, v); ierr != nil {
					f.lastRaw = nil // next round fetches full, delta base is suspect
					f.fail(CauseRestore, ierr)
					attempt++
					f.retries.Add(1)
					if serr := sleepCtx(ctx, backoffDelay(f.rng, attempt-1, f.cfg.BackoffBase, f.cfg.BackoffMax)); serr != nil {
						return serr
					}
					continue
				}
				f.installs.Add(1)
				if isDelta {
					f.deltaInstalls.Add(1)
				}
				f.lastRaw = full
				have = v
			}
			f.br.success()
			attempt = 0
			if serr := sleepCtx(ctx, f.cfg.Interval); serr != nil {
				return serr
			}
			continue
		}
		cause, retryAfter := CauseDial, time.Duration(0)
		var fe *FetchError
		if errors.As(err, &fe) {
			cause, retryAfter = fe.Cause, fe.RetryAfter
		}
		f.fail(cause, err)
		attempt++
		f.retries.Add(1)
		delay := backoffDelay(f.rng, attempt-1, f.cfg.BackoffBase, f.cfg.BackoffMax)
		if retryAfter > delay {
			delay = retryAfter
		}
		if serr := sleepCtx(ctx, delay); serr != nil {
			return serr
		}
	}
}

// Follow runs a replica's pull loop against a trainer's /v1/envelope
// until ctx is cancelled — NewFollower(...).Run(ctx) for callers that
// don't need the Follower handle (stats, staleness, breaker state).
func Follow(ctx context.Context, baseURL string, sc serve.Scorer, cfg FollowConfig) error {
	return NewFollower(baseURL, sc, cfg).Run(ctx)
}

// Bootstrap fetches the trainer's current envelope once and constructs
// a local scorer from it (a racer's checkpoint reconstructs a racer).
// This is how `dmtserve -follow` starts with no local model.
// A nil client gets the shared default; the fetch is bound to ctx.
func Bootstrap(ctx context.Context, client *http.Client, baseURL string, publishEvery int) (serve.Scorer, uint64, error) {
	sc, v, _, err := BootstrapRaw(ctx, client, baseURL, publishEvery)
	return sc, v, err
}

// BootstrapRaw is Bootstrap returning also the fetched envelope's
// verbatim wire bytes, so the caller can seed a Follower's delta base
// (SeedInstalled) and the first follow poll already negotiates deltas.
func BootstrapRaw(ctx context.Context, client *http.Client, baseURL string, publishEvery int) (serve.Scorer, uint64, []byte, error) {
	if client == nil {
		client = httpClient(nil, 30*time.Second)
	}
	raw, v, err := Fetch(ctx, client, baseURL, ^uint64(0), 0)
	if err != nil {
		return nil, 0, nil, err
	}
	sc, err := serve.FromCheckpoint(bytes.NewReader(raw), publishEvery)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("follow: bootstrap envelope: %w", err)
	}
	return sc, v, raw, nil
}
