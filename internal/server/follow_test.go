package server

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// The breaker's full state machine under a fake clock: consecutive
// failures open it, the cooldown admits exactly one half-open probe,
// a failed probe re-opens, a successful probe closes.
func TestBreakerStateMachine(t *testing.T) {
	var mu sync.Mutex
	var transitions []string
	clock := time.Unix(0, 0)
	b := newBreaker(2, time.Second, func(from, to BreakerState) {
		mu.Lock()
		transitions = append(transitions, from.String()+"->"+to.String())
		mu.Unlock()
	})
	b.now = func() time.Time { return clock }

	if !b.allow() {
		t.Fatal("closed breaker refused a call")
	}
	b.failure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.failure()
	if b.State() != BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if b.allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	clock = clock.Add(time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	if b.allow() {
		t.Fatal("second call admitted while the probe is in flight")
	}
	b.failure() // probe fails: re-open
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open")
	}

	clock = clock.Add(time.Second)
	if !b.allow() {
		t.Fatal("second probe refused")
	}
	b.success()
	if b.State() != BreakerClosed {
		t.Fatal("successful probe did not close")
	}
	if got := b.Opens(); got != 2 {
		t.Fatalf("opens %d, want 2", got)
	}

	mu.Lock()
	got := strings.Join(transitions, ",")
	mu.Unlock()
	want := "closed->open,open->half-open,half-open->open,open->half-open,half-open->closed"
	if got != want {
		t.Fatalf("transitions %q, want %q", got, want)
	}
}

// Full-jitter backoff: deterministic under a seed, bounded by the cap,
// and safe at absurd attempt counts.
func TestBackoffDelayDeterministic(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		out := make([]time.Duration, 20)
		for i := range out {
			out[i] = backoffDelay(rng, i, 10*time.Millisecond, 500*time.Millisecond)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %v vs %v under the same seed", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 500*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside [0, 500ms)", i, a[i])
		}
	}
	rng := rand.New(rand.NewSource(1))
	if d := backoffDelay(rng, 1000, time.Millisecond, time.Second); d < 0 || d >= time.Second {
		t.Fatalf("huge attempt drew %v", d)
	}
}

// Fetch classifies each failure mode into its cause and carries the
// Retry-After hint through.
func TestFetchErrorClassification(t *testing.T) {
	ctx := context.Background()

	t.Run("non-2xx is status with retry-after", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
		}))
		defer ts.Close()
		_, _, err := Fetch(ctx, ts.Client(), ts.URL, ^uint64(0), 0)
		var fe *FetchError
		if !errors.As(err, &fe) {
			t.Fatalf("not a FetchError: %v", err)
		}
		if fe.Cause != CauseStatus || fe.Status != http.StatusTooManyRequests {
			t.Fatalf("cause %q status %d", fe.Cause, fe.Status)
		}
		if fe.RetryAfter != time.Second {
			t.Fatalf("RetryAfter %v, want 1s", fe.RetryAfter)
		}
	})

	t.Run("missing version header is decode", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "an envelope with no version stamp")
		}))
		defer ts.Close()
		_, _, err := Fetch(ctx, ts.Client(), ts.URL, ^uint64(0), 0)
		var fe *FetchError
		if !errors.As(err, &fe) || fe.Cause != CauseDecode {
			t.Fatalf("want decode cause, got %v", err)
		}
	})

	t.Run("refused connection is dial", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		_, _, ferr := Fetch(ctx, http.DefaultClient, "http://"+addr, ^uint64(0), 0)
		var fe *FetchError
		if !errors.As(ferr, &fe) || fe.Cause != CauseDial {
			t.Fatalf("want dial cause, got %v", ferr)
		}
	})

	t.Run("slow trainer is timeout", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		}))
		defer ts.Close()
		client := httpClient(nil, 50*time.Millisecond)
		_, _, err := Fetch(ctx, client, ts.URL, ^uint64(0), 0)
		var fe *FetchError
		if !errors.As(err, &fe) || fe.Cause != CauseTimeout {
			t.Fatalf("want timeout cause, got %v", err)
		}
	})
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"2", 2 * time.Second}, {"0", 0}, {"-1", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0}, {"junk", 0},
	} {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// A follower facing a trainer that fails, then heals: errors are
// counted per cause (nothing swallowed), the breaker opens and stops
// the hammering, the half-open probe readmits the healed trainer, and
// the follower converges — with every transition observed.
func TestFollowerBreakerOpensAndRecovers(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	srv := New(trainer, Config{})
	defer srv.Close()
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	replica := newTrainedScorer(t, 10)
	var mu sync.Mutex
	var transitions []string
	f := NewFollower(ts.URL, replica, FollowConfig{
		Interval:         5 * time.Millisecond,
		Timeout:          2 * time.Second,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  20 * time.Millisecond,
		Seed:             42,
		OnStateChange: func(from, to BreakerState) {
			mu.Lock()
			transitions = append(transitions, from.String()+"->"+to.String())
			mu.Unlock()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	// Phase 1: the outage trips the breaker.
	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().BreakerOpens == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened against a 100% failing trainer")
		}
		time.Sleep(time.Millisecond)
	}
	if st := f.Stats(); st.StatusErrors < 3 {
		t.Fatalf("status errors %d, want >= threshold", st.StatusErrors)
	} else if st.Retries == 0 {
		t.Fatal("no retries counted")
	} else if !st.Degraded {
		t.Fatal("open breaker not reported as degraded")
	}
	if lag, degraded := f.Staleness(); !degraded || lag <= 0 {
		t.Fatalf("staleness (%v, %v) during an outage", lag, degraded)
	}

	// Phase 2: heal the trainer; the half-open probe must readmit it
	// and install the envelope.
	failing.Store(false)
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := f.Stats()
		if st.HasInstalled && st.State == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never recovered: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if _, degraded := f.Staleness(); degraded {
		t.Fatal("recovered follower still degraded")
	}
	v, ok := f.InstalledVersion()
	wantV, _ := trainer.StructureVersion()
	if !ok || v != wantV {
		t.Fatalf("installed version %d (ok=%v), trainer at %d", v, ok, wantV)
	}

	cancel()
	<-done

	mu.Lock()
	seq := strings.Join(transitions, ",")
	mu.Unlock()
	if !strings.Contains(seq, "closed->open") ||
		!strings.Contains(seq, "open->half-open") ||
		!strings.HasSuffix(seq, "half-open->closed") {
		t.Fatalf("transition sequence %q missing open/probe/close", seq)
	}
}

// A restore-rejected envelope (corrupt bytes) is counted as a restore
// failure and never installed — the replica's model is untouched.
func TestFollowerRejectsCorruptEnvelope(t *testing.T) {
	trainer := newTrainedScorer(t, 120)
	srv := New(trainer, Config{})
	defer srv.Close()
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		body := rec.Body.Bytes()
		if len(body) > 0 {
			body[len(body)/2] ^= 0xff // corrupt mid-envelope; CRC must catch it
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer ts.Close()

	replica := newTrainedScorer(t, 10)
	X, _ := seaRows(8, 31)
	before := replica.PredictBatch(X, nil)

	f := NewFollower(ts.URL, replica, FollowConfig{
		Interval:    2 * time.Millisecond,
		Timeout:     2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  3 * time.Millisecond,
		Seed:        3,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for f.Stats().RestoreErrors < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("restore errors never counted: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	st := f.Stats()
	if st.HasInstalled {
		t.Fatal("corrupt envelope was installed")
	}
	after := replica.PredictBatch(X, nil)
	if !equalInts(before, after) {
		t.Fatal("rejected envelope changed the replica's model")
	}
}

// Close releases a parked ?wait= long-poll promptly with a 503 instead
// of holding the connection until the wait expires.
func TestCloseReleasesLongPoll(t *testing.T) {
	sc := newTrainedScorer(t, 120)
	srv, ts := newTestServer(t, sc, Config{})
	v, _ := sc.StructureVersion()

	type result struct {
		status int
		err    error
		took   time.Duration
	}
	results := make(chan result, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/v1/envelope?version=" + itoa(v) + "&wait=30s")
		r := result{err: err, took: time.Since(start)}
		if err == nil {
			r.status = resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		results <- r
	}()

	time.Sleep(100 * time.Millisecond) // let the poll park
	start := time.Now()
	srv.Close()
	select {
	case r := <-results:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusServiceUnavailable {
			t.Fatalf("parked long-poll answered %d on close, want 503", r.status)
		}
		if since := time.Since(start); since > 2*time.Second {
			t.Fatalf("long-poll released %v after close", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll still parked 5s after Close — shutdown hang")
	}
}

// deafScorer hides every version move from Changed: its channel never
// closes, so a long poll parked on it can only answer when its wait
// expires.
type deafScorer struct {
	serve.Scorer
	never chan struct{}
}

func (d deafScorer) Changed() <-chan struct{} { return d.never }

// A parked ?wait= long poll is woken by the scorer's Changed channel and
// by nothing else. With a live channel it answers 200 with the new
// version as soon as a Learn moves it. With a channel that never fires
// it stays parked past the version move until the wait expires, and only
// then answers from its last version check, so no polling path sits
// beside the event.
func TestLongPollWakesOnChanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		deaf bool
		wait time.Duration
	}{
		{"changed", false, 30 * time.Second},
		{"deaf", true, 2 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := newTrainedScorer(t, 20)
			served := sc
			if tc.deaf {
				served = deafScorer{Scorer: sc, never: make(chan struct{})}
			}
			_, ts := newTestServer(t, served, Config{})
			v, _ := sc.StructureVersion()

			type result struct {
				status  int
				version string
				at      time.Time
				err     error
			}
			results := make(chan result, 1)
			start := time.Now()
			go func() {
				resp, err := http.Get(ts.URL + "/v1/envelope?version=" + itoa(v) + "&wait=" + tc.wait.String())
				r := result{err: err}
				if err == nil {
					r.status, r.version = resp.StatusCode, resp.Header.Get(VersionHeader)
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				r.at = time.Now()
				results <- r
			}()

			time.Sleep(100 * time.Millisecond) // let the poll park
			next := advanceVersion(t, sc, v, 23)
			moved := time.Now()
			var r result
			select {
			case r = <-results:
			case <-time.After(tc.wait + 5*time.Second):
				t.Fatal("long poll still parked 5s after its wait expired")
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.status != http.StatusOK || r.version != itoa(next) {
				t.Fatalf("long poll answered %d at version %s, want 200 at %d", r.status, r.version, next)
			}
			if tc.deaf {
				if r.at.Sub(start) < tc.wait {
					t.Fatalf("poll answered %v after a version move its Changed channel never signalled, before its %v wait expired: something polls beside the event", r.at.Sub(moved), tc.wait)
				}
			} else if r.at.Sub(moved) > 5*time.Second {
				t.Fatalf("poll answered %v after the version moved, want it woken by the publish", r.at.Sub(moved))
			}
		})
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// Predictions racing Close never hang and never get an empty answer:
// each is either a 200 or a 503 with a body. This pins down the
// coalescer shutdown race (a job enqueued after the dispatcher's final
// drain used to wait on its done channel forever).
func TestPredictDuringCloseReturns503WithBody(t *testing.T) {
	sc := newTrainedScorer(t, 20)
	for round := 0; round < 20; round++ {
		srv := New(sc, Config{CoalesceWindow: time.Millisecond})
		ts := httptest.NewServer(srv.Handler())
		X, _ := seaRows(1, 16)

		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp := postJSON(t, ts.URL+"/v1/predict", predictRequest{X: X[0]})
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusServiceUnavailable:
					if len(body) == 0 {
						errs <- errors.New("503 with an empty body")
					}
				default:
					errs <- errors.New("unexpected status " + resp.Status)
				}
			}()
		}
		srv.Close() // race the in-flight predictions
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: predictions hung across Close", round)
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		ts.Close()
		srv.Close() // double close must be a no-op, not a panic
	}
}
