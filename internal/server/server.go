// Package server is the network serving tier over the concurrent
// scorers of internal/serve: an HTTP prediction service that turns one
// process's wait-free Scorer into something a fleet can stand behind.
// It is the process boundary the ROADMAP's "millions of users" story
// needs — everything below the wire (lock-free snapshot reads, batch
// prediction, the self-describing checkpoint envelope) already exists,
// and this package only arranges it behind endpoints:
//
//	POST /v1/predict        one row (JSON or binary); concurrent singles
//	                        are coalesced into one PredictBatch call
//	POST /v1/predict_batch  a row matrix (JSON or binary)
//	POST /v1/swap           stream a persist envelope into the live
//	                        scorer (hot model swap, zero dropped reads)
//	GET  /v1/envelope       the trainer→replica publish side: current
//	                        model as an envelope, long-poll on version
//	GET  /healthz           liveness
//	GET  /statusz           model name, schema, structure version,
//	                        publish count, queue depth, traffic counters
//
// Admission control is a bounded in-flight slot pool: prediction
// requests beyond MaxInFlight are rejected immediately with 429 and a
// Retry-After hint instead of queueing without bound, so overload
// degrades into fast, explicit backpressure rather than latency
// collapse.
package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/race"
	"repro/internal/serve"
	"repro/internal/stream"
)

// Wire constants of the binary row format: little-endian, a (rows, cols)
// uint32 header followed by rows*cols float64 feature values; responses
// are a uint32 row count followed by one int32 class per row. The JSON
// format is content-type application/json on the same endpoints.
const (
	// ContentTypeRows is the binary request matrix content type.
	ContentTypeRows = "application/x-repro-rows"
	// ContentTypePreds is the binary prediction response content type.
	ContentTypePreds = "application/x-repro-preds"
	// ContentTypeEnvelope is the checkpoint envelope content type served
	// by /v1/envelope and accepted by /v1/swap.
	ContentTypeEnvelope = "application/x-repro-envelope"
	// ContentTypeDeltaChain is the content type of a ?since= delta
	// response: a concatenation of REPRODLT delta envelopes that turn the
	// client's base envelope into the current head (see persist.Delta).
	ContentTypeDeltaChain = "application/x-repro-delta"
	// VersionHeader carries the structure version an envelope response
	// was captured at (and /statusz's structure_version). On a delta
	// response it is the chain's head version.
	VersionHeader = "X-Repro-Structure-Version"
	// DeltaBaseHeader is the base structure version a delta-chain
	// response must be applied against (the client's ?since= value).
	DeltaBaseHeader = "X-Repro-Delta-Base"
	// DeltaCountHeader is the number of stacked delta envelopes in a
	// delta-chain response body.
	DeltaCountHeader = "X-Repro-Delta-Count"
	// ModelHeader carries the served model's registered name.
	ModelHeader = "X-Repro-Model"
	// StalenessHeader is stamped on prediction responses from a
	// degraded replica (trainer unreachable, breaker open): how many
	// seconds the served model has been cut off from its trainer. A
	// degraded replica keeps answering — the header is the signal that
	// the answers come from a snapshot that has stopped advancing.
	StalenessHeader = "X-Repro-Staleness"
)

// Config tunes a Server. The zero value serves with the defaults noted
// on each field.
type Config struct {
	// CoalesceWindow bounds how long a batch of single /v1/predict rows
	// may wait for companions (default 1ms). A batch flushes as soon as
	// the queue is drained unless another single-row predict is already
	// admitted and on its way (still decoding its body); only then does
	// it wait, until that row arrives or the window expires. An isolated
	// request never waits. Negative disables waiting altogether —
	// whatever is queued at dispatch time still coalesces.
	CoalesceWindow time.Duration
	// MaxBatch caps one coalesced PredictBatch call (default 64 rows).
	MaxBatch int
	// MaxInFlight bounds concurrently admitted prediction requests
	// across /v1/predict and /v1/predict_batch (default 256). Beyond it
	// the server answers 429 with a Retry-After hint.
	MaxInFlight int
	// RetryAfter is the backpressure hint on 429 responses, rounded up
	// to whole seconds per RFC 9110 (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 64 MiB — a wide
	// ensemble envelope fits, an abusive body does not).
	MaxBodyBytes int64
	// LongPollMax caps the ?wait= duration of /v1/envelope long polls
	// (default 30s).
	LongPollMax time.Duration
	// EnvelopeHistory bounds the /v1/envelope capture history: how many
	// recent envelopes (with the deltas linking them) are kept so
	// ?since= requests can be answered with a delta chain instead of a
	// full envelope (default 8). A base older than the ring answers full.
	EnvelopeHistory int
	// Registry tunes the replica registry behind /v1/replicas
	// (heartbeat TTL, version-lag health gate).
	Registry RegistryConfig
}

func (c Config) withDefaults() Config {
	if c.CoalesceWindow == 0 {
		c.CoalesceWindow = time.Millisecond
	}
	if c.CoalesceWindow < 0 {
		c.CoalesceWindow = 0
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.LongPollMax <= 0 {
		c.LongPollMax = 30 * time.Second
	}
	if c.EnvelopeHistory <= 0 {
		c.EnvelopeHistory = 8
	}
	c.Registry = c.Registry.withDefaults()
	return c
}

// StalenessSource reports how far the served model trails its upstream
// (the Follower implements it): the lag since the last successful
// trainer contact, and whether the replica is degraded (cut off — the
// follow breaker is open). A degraded server stamps StalenessHeader on
// prediction responses and reports degraded on /healthz and /statusz.
type StalenessSource interface {
	Staleness() (lag time.Duration, degraded bool)
}

type stalenessHolder struct{ src StalenessSource }

// Server serves prediction traffic for one serve.Scorer. Create with
// New, expose via Handler (it composes into any mux), stop with Close.
// The scorer may keep training concurrently — every endpoint goes
// through the Scorer interface's concurrency contract, and /v1/swap
// installs a new model with zero dropped reads.
type Server struct {
	scorer serve.Scorer
	cfg    Config
	mux    *http.ServeMux
	co     *coalescer
	reg    *Registry

	inflight chan struct{} // admission slots; len() is the live queue depth

	closing   chan struct{} // closed by Close; releases parked long-polls
	closeOnce sync.Once

	draining atomic.Int32                    // >0: not ready (an envelope restore is in flight)
	stale    atomic.Pointer[stalenessHolder] // optional upstream-staleness source

	started  time.Time
	served   atomic.Uint64 // rows answered across both prediction endpoints
	rejected atomic.Uint64 // 429s
	swaps    atomic.Uint64 // successful /v1/swap installs

	// Envelope cache for /v1/envelope: capturing a checkpoint costs a
	// full state serialisation, so captures are reused until the
	// structure version moves (or a swap invalidates them). envHist is
	// the bounded capture history behind ?since= delta serving.
	envMu   sync.Mutex
	envRaw  []byte
	envVer  uint64
	envSeq  uint64 // capture counter, the version surrogate for versionless models
	envHist []envEntry

	deltasServed atomic.Uint64 // ?since= requests answered with a chain
}

// envEntry is one capture in the bounded envelope history: its structure
// version, its full wire bytes, and the wire bytes of the delta envelope
// leading to it from the previous entry (nil when none could be
// computed — the ring's first entry, or a scorer whose checkpoint is a
// bundle rather than a single envelope: a racer).
type envEntry struct {
	ver   uint64
	raw   []byte
	dwire []byte
}

// New builds a Server over the scorer. Close must be called when the
// server is retired (it stops the coalescer goroutine).
func New(sc serve.Scorer, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		scorer:   sc,
		cfg:      cfg,
		reg:      NewRegistry(cfg.Registry),
		inflight: make(chan struct{}, cfg.MaxInFlight),
		closing:  make(chan struct{}),
		started:  time.Now(),
	}
	s.co = newCoalescer(sc, cfg.CoalesceWindow, cfg.MaxBatch, cfg.MaxInFlight)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/predict_batch", s.handlePredictBatch)
	mux.HandleFunc("POST /v1/swap", s.handleSwap)
	mux.HandleFunc("GET /v1/envelope", s.handleEnvelope)
	mux.HandleFunc("POST /v1/replicas", s.handleReplicaAnnounce)
	mux.HandleFunc("GET /v1/replicas", s.handleReplicaList)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	s.mux = mux
	return s
}

// Handler returns the server's http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the coalescer and releases any parked /v1/envelope long
// polls promptly (they answer 503), so a graceful drain is bounded by
// its deadline instead of a replica's ?wait=. In-flight coalesced
// requests are failed with 503; the HTTP server owning the handler
// shuts down separately. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.closing)
		s.co.close()
	})
}

// Scorer returns the served scorer (for a co-located training loop).
func (s *Server) Scorer() serve.Scorer { return s.scorer }

// Swaps returns the number of completed hot model swaps.
func (s *Server) Swaps() uint64 { return s.swaps.Load() }

// Registry returns the server's replica registry (the trainer side of
// the fleet protocol behind /v1/replicas).
func (s *Server) Registry() *Registry { return s.reg }

// BeginDrain marks the server not-ready (an envelope restore is about
// to replace the served model): /healthz reports ready=false, the
// replica's heartbeats propagate it, and the registry health-gates the
// replica out so load balancers stop picking it. In-flight reads still
// finish — draining gates new picks, not running requests. Calls nest;
// EndDrain releases one level. The Server implements the follow
// client's Drainer.
func (s *Server) BeginDrain() { s.draining.Add(1) }

// EndDrain releases one BeginDrain level.
func (s *Server) EndDrain() { s.draining.Add(-1) }

// Ready reports serving readiness: not draining and not closing.
func (s *Server) Ready() bool {
	select {
	case <-s.closing:
		return false
	default:
	}
	return s.draining.Load() == 0
}

// SetStalenessSource wires the upstream-staleness source (a replica's
// Follower) into health reporting and the StalenessHeader stamp.
func (s *Server) SetStalenessSource(src StalenessSource) {
	s.stale.Store(&stalenessHolder{src: src})
}

// staleness reads the wired source (0, false without one).
func (s *Server) staleness() (time.Duration, bool) {
	if h := s.stale.Load(); h != nil && h.src != nil {
		return h.src.Staleness()
	}
	return 0, false
}

// stampStaleness marks responses served while degraded (see
// StalenessHeader). Call before the first body write.
func (s *Server) stampStaleness(w http.ResponseWriter) {
	if lag, degraded := s.staleness(); degraded {
		w.Header().Set(StalenessHeader, strconv.FormatFloat(lag.Seconds(), 'f', 3, 64))
	}
}

// admit claims an admission slot, or answers 429 + Retry-After and
// returns false. Callers must release() iff admit returned true.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		s.rejected.Add(1)
		secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, fmt.Sprintf("overloaded: %d requests in flight; retry after %ds", s.cfg.MaxInFlight, secs), http.StatusTooManyRequests)
		return false
	}
}

func (s *Server) release() { <-s.inflight }

// validateRow checks one request row against the served schema: width,
// and for categorical features a valid level code. Errors name the first
// offending row and column so the 400 locates the defect. A zero schema
// (an external model exposing none) skips validation.
func (s *Server) validateRow(i int, row []float64) error {
	schema := s.scorer.Schema()
	m := schema.NumFeatures
	if m == 0 {
		return nil
	}
	if len(row) != m {
		return fmt.Errorf("row %d has %d features, model serves %d", i, len(row), m)
	}
	if !schema.HasCategorical() {
		return nil
	}
	for j := 0; j < m; j++ {
		if card := schema.Cardinality(j); card > 0 {
			if err := stream.CheckCode(row[j], card); err != nil {
				return fmt.Errorf("row %d column %d (%s): %v", i, j, schema.FeatureName(j), err)
			}
		}
	}
	return nil
}

// --- request decoding ------------------------------------------------

type predictRequest struct {
	X     []float64 `json:"x"`
	Proba bool      `json:"proba,omitempty"`
}

type predictResponse struct {
	Y     int       `json:"y"`
	Proba []float64 `json:"proba,omitempty"`
}

type batchRequest struct {
	Rows  [][]float64 `json:"rows"`
	Proba bool        `json:"proba,omitempty"`
}

type batchResponse struct {
	Y     []int       `json:"y"`
	Proba [][]float64 `json:"proba,omitempty"`
}

// readRows decodes a request body in either wire format into a row
// matrix. Binary bodies (ContentTypeRows) carry a (rows, cols) header;
// JSON bodies are a batchRequest. The returned bool is the JSON
// request's proba flag (binary requests never ask for probabilities).
func (s *Server) readRows(w http.ResponseWriter, r *http.Request) ([][]float64, bool, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if r.Header.Get("Content-Type") == ContentTypeRows {
		rows, err := decodeBinaryRows(body, maxBinaryCells)
		if err != nil {
			http.Error(w, "bad binary rows: "+err.Error(), http.StatusBadRequest)
			return nil, false, false
		}
		return rows, false, true
	}
	var req batchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "bad JSON body: "+err.Error(), http.StatusBadRequest)
		return nil, false, false
	}
	return req.Rows, req.Proba, true
}

// maxBinaryCells bounds rows*cols of a binary request so a corrupt
// header cannot demand an absurd allocation (64 MiB of float64s).
const maxBinaryCells = 8 << 20

// binaryChunkCells is how many cells decodeBinaryRows reads at a time:
// memory grows with the bytes that actually arrive, never with what the
// header merely claims.
const binaryChunkCells = 4 << 10

// decodeBinaryRows reads an application/x-repro-rows body of at most
// maxRows rows. The header is checked before anything is allocated, and
// a short body is an error, never a partial matrix.
func decodeBinaryRows(r io.Reader, maxRows int) ([][]float64, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("read (rows, cols) header: %w", err)
	}
	n := binary.LittleEndian.Uint32(head[:4])
	m := binary.LittleEndian.Uint32(head[4:])
	if n == 0 || m == 0 || uint64(n)*uint64(m) > maxBinaryCells {
		return nil, fmt.Errorf("implausible shape %dx%d", n, m)
	}
	if uint64(n) > uint64(maxRows) {
		return nil, fmt.Errorf("%d rows where at most %d are accepted (use /v1/predict_batch)", n, maxRows)
	}
	cells := int(n) * int(m)
	buf := make([]byte, 8*min(cells, binaryChunkCells))
	vals := make([]float64, 0, min(cells, binaryChunkCells))
	for len(vals) < cells {
		chunk := buf[:8*min(cells-len(vals), binaryChunkCells)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("read %dx%d float64 cells: %w", n, m, err)
		}
		for i := 0; i < len(chunk); i += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = vals[i*int(m) : (i+1)*int(m) : (i+1)*int(m)]
	}
	return rows, nil
}

func writeBinaryPreds(w http.ResponseWriter, preds []int) {
	out := make([]byte, 4+4*len(preds))
	binary.LittleEndian.PutUint32(out, uint32(len(preds)))
	for i, y := range preds {
		binary.LittleEndian.PutUint32(out[4+4*i:], uint32(int32(y)))
	}
	w.Header().Set("Content-Type", ContentTypePreds)
	w.Write(out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// --- prediction endpoints --------------------------------------------

// handlePredict answers one row. Plain predictions join the coalescer,
// so concurrent singles are served by one PredictBatch call from one
// consistent model state; probability requests go straight to Proba
// (they are not coalesced).
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	// Announce the row before decoding it, so a batch the coalescer has
	// already collected waits for it instead of flushing alone; a row
	// that will not be queued is withdrawn as soon as that is known.
	s.co.expect()
	binaryReq := r.Header.Get("Content-Type") == ContentTypeRows
	x, wantProba, err := s.readRow(w, r, binaryReq)
	if err != nil || wantProba {
		s.co.withdraw()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.stampStaleness(w)
	if wantProba {
		proba := s.scorer.Proba(x, nil)
		y := argmax(proba)
		s.served.Add(1)
		writeJSON(w, predictResponse{Y: y, Proba: proba})
		return
	}
	y, err := s.co.predict(r.Context(), x, true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	s.served.Add(1)
	if binaryReq {
		writeBinaryPreds(w, []int{y})
		return
	}
	writeJSON(w, predictResponse{Y: y})
}

// readRow decodes and validates the one row of a /v1/predict body. A
// binary body announcing more than one row is rejected from its header.
// The bool is the JSON request's proba flag.
func (s *Server) readRow(w http.ResponseWriter, r *http.Request, binaryReq bool) ([]float64, bool, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var x []float64
	var wantProba bool
	if binaryReq {
		rows, err := decodeBinaryRows(body, 1)
		if err != nil {
			return nil, false, fmt.Errorf("bad binary rows: %w", err)
		}
		x = rows[0]
	} else {
		var req predictRequest
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return nil, false, fmt.Errorf("bad JSON body: %w", err)
		}
		x, wantProba = req.X, req.Proba
	}
	return x, wantProba, s.validateRow(0, x)
}

func argmax(p []float64) int {
	best, arg := math.Inf(-1), 0
	for i, v := range p {
		if v > best {
			best, arg = v, i
		}
	}
	return arg
}

// handlePredictBatch answers a row matrix through one PredictBatch (or
// ProbaBatch) call — one consistent model state for the whole batch.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.release()
	rows, wantProba, ok := s.readRows(w, r)
	if !ok {
		return
	}
	for i, row := range rows {
		if err := s.validateRow(i, row); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	s.stampStaleness(w)
	if wantProba {
		proba := s.scorer.ProbaBatch(rows, nil)
		preds := make([]int, len(proba))
		for i, p := range proba {
			preds[i] = argmax(p)
		}
		s.served.Add(uint64(len(rows)))
		writeJSON(w, batchResponse{Y: preds, Proba: proba})
		return
	}
	preds := s.scorer.PredictBatch(rows, nil)
	s.served.Add(uint64(len(rows)))
	if r.Header.Get("Content-Type") == ContentTypeRows {
		writeBinaryPreds(w, preds)
		return
	}
	writeJSON(w, batchResponse{Y: preds})
}

// --- hot swap and envelope publishing --------------------------------

// handleSwap streams a persist envelope (or, for a racer, a persist
// bundle) from the request body into the live scorer.
// Restore validates everything before any state is touched and installs
// with the scorer's own consistency guarantees, so concurrent reads
// never fail and never see a half-swapped model.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// Drain around the install: readiness drops, so the registry stops
	// routing new work here while the model is replaced; in-flight
	// reads finish against the scorer's hot-swap guarantees.
	s.BeginDrain()
	err := s.scorer.Restore(body)
	s.EndDrain()
	if err != nil {
		http.Error(w, "swap rejected: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.swaps.Add(1)
	s.invalidateEnvelope()
	v, _ := s.scorer.StructureVersion()
	writeJSON(w, map[string]any{
		"model":             s.scorer.Name(),
		"structure_version": v,
		"swaps":             s.swaps.Load(),
	})
}

// invalidateEnvelope drops the cached envelope capture and the delta
// history (after a swap: the cache key is the structure version, which a
// restored model could plausibly collide with — a stale history entry
// would then hand a follower a chain whose base CRC can never match).
func (s *Server) invalidateEnvelope() {
	s.envMu.Lock()
	s.envRaw = nil
	s.envHist = nil
	s.envMu.Unlock()
}

// envelope returns the scorer's current state as validated envelope
// bytes plus the version they were captured at. Captures are cached by
// structure version; models without one are re-captured per call with a
// monotone capture counter as the version surrogate.
func (s *Server) envelope() ([]byte, uint64, error) {
	v, hasVersion := s.scorer.StructureVersion()
	s.envMu.Lock()
	defer s.envMu.Unlock()
	if hasVersion && s.envRaw != nil && s.envVer == v {
		return s.envRaw, s.envVer, nil
	}
	// The version is read before the capture, so a concurrent trainer
	// can only make the cached bytes newer than their recorded version —
	// a follower may then fetch one redundant envelope, never a stale
	// one.
	var buf bytes.Buffer
	if err := s.scorer.Checkpoint(&buf); err != nil {
		return nil, 0, err
	}
	s.envSeq++
	if !hasVersion {
		v = s.envSeq
	}
	s.envRaw, s.envVer = buf.Bytes(), v
	if hasVersion {
		s.pushHistory(v, s.envRaw)
	}
	return s.envRaw, s.envVer, nil
}

// pushHistory appends a capture to the bounded envelope history,
// computing the delta envelope from the previous capture. Versionless
// models never reach here — their surrogate versions could not key a
// delta chain. Callers hold envMu.
func (s *Server) pushHistory(v uint64, raw []byte) {
	if n := len(s.envHist); n > 0 {
		if s.envHist[n-1].ver == v {
			return
		}
		var dwire []byte
		// A capture that is a bundle rather than one plain envelope (a
		// racer's) fails MakeDelta; the entry then
		// simply breaks the chain and ?since= falls back to full.
		if d, err := persist.MakeDelta(s.envHist[n-1].raw, raw); err == nil {
			var db bytes.Buffer
			if persist.WriteDelta(&db, d) == nil {
				dwire = db.Bytes()
			}
		}
		s.envHist = append(s.envHist, envEntry{ver: v, raw: raw, dwire: dwire})
	} else {
		s.envHist = append(s.envHist, envEntry{ver: v, raw: raw})
	}
	if max := s.cfg.EnvelopeHistory; len(s.envHist) > max {
		s.envHist = append([]envEntry(nil), s.envHist[len(s.envHist)-max:]...)
	}
}

// deltaChain returns the concatenated delta envelopes leading from the
// client's version to the history head, with the head version and link
// count. ok is false when the history cannot serve the request — the
// base was compacted out of the ring, the base is already the head, or a
// link in between has no delta — and the caller serves a full envelope.
func (s *Server) deltaChain(since uint64) (chain []byte, head uint64, count int, ok bool) {
	s.envMu.Lock()
	defer s.envMu.Unlock()
	i := -1
	for j := range s.envHist {
		if s.envHist[j].ver == since {
			i = j
			break
		}
	}
	if i < 0 || i == len(s.envHist)-1 {
		return nil, 0, 0, false
	}
	var buf bytes.Buffer
	for _, e := range s.envHist[i+1:] {
		if e.dwire == nil {
			return nil, 0, 0, false
		}
		buf.Write(e.dwire)
		count++
	}
	return buf.Bytes(), s.envHist[len(s.envHist)-1].ver, count, true
}

// handleEnvelope serves the trainer side of the replica-follow
// protocol: the current model as envelope bytes, stamped with the
// structure version. A client that passes ?version=N (its last
// installed version) gets 304 Not Modified while the version still
// equals N; with ?wait=DURATION the 304 is deferred — the handler parks
// on the scorer's Changed channel and answers on the publish that moves
// the version, or with the 304 once the wait expires. A client that also
// passes ?since=N (it still holds the full envelope bytes of version N)
// is answered with a delta chain when the capture history still covers
// N — ContentTypeDeltaChain, DeltaBaseHeader/DeltaCountHeader stamped —
// and with a full envelope otherwise.
func (s *Server) handleEnvelope(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	haveSince := false
	if qs := q.Get("version"); qs != "" {
		v, err := strconv.ParseUint(qs, 10, 64)
		if err != nil {
			http.Error(w, "bad version: "+err.Error(), http.StatusBadRequest)
			return
		}
		since, haveSince = v, true
	}
	var deltaBase uint64
	haveDeltaBase := false
	if qs := q.Get("since"); qs != "" {
		v, err := strconv.ParseUint(qs, 10, 64)
		if err != nil {
			http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
			return
		}
		deltaBase, haveDeltaBase = v, true
	}
	var wait time.Duration
	if qs := q.Get("wait"); qs != "" {
		d, err := time.ParseDuration(qs)
		if err != nil {
			http.Error(w, "bad wait: "+err.Error(), http.StatusBadRequest)
			return
		}
		wait = min(d, s.cfg.LongPollMax)
	}
	var timer *time.Timer
	for {
		// Take the change channel before reading the version: a publish
		// that lands after the read closes a channel already held, so no
		// wake-up is lost.
		changed := s.scorer.Changed()
		cur, hasVersion := s.scorer.StructureVersion()
		if !haveSince || !hasVersion || cur != since {
			s.writeEnvelope(w, haveDeltaBase && hasVersion, deltaBase)
			return
		}
		if wait <= 0 {
			w.Header().Set(VersionHeader, strconv.FormatUint(cur, 10))
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if timer == nil {
			timer = time.NewTimer(wait)
			defer timer.Stop()
		}
		select {
		case <-changed:
		case <-timer.C:
			wait = 0 // one last version check, then 304
		case <-r.Context().Done():
			return
		case <-s.closing:
			// Close releases parked long-polls promptly so a graceful
			// drain is bounded by its deadline, not by ?wait=.
			http.Error(w, "server closing", http.StatusServiceUnavailable)
			return
		}
	}
}

// writeEnvelope answers an envelope request with the current capture:
// a delta chain from deltaBase when tryDelta is set and the history
// covers it, the full envelope otherwise.
func (s *Server) writeEnvelope(w http.ResponseWriter, tryDelta bool, deltaBase uint64) {
	raw, v, err := s.envelope()
	if err != nil {
		http.Error(w, "capture failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if tryDelta && deltaBase != v {
		if chain, head, n, ok := s.deltaChain(deltaBase); ok {
			s.deltasServed.Add(1)
			w.Header().Set("Content-Type", ContentTypeDeltaChain)
			w.Header().Set(ModelHeader, s.scorer.Name())
			w.Header().Set(VersionHeader, strconv.FormatUint(head, 10))
			w.Header().Set(DeltaBaseHeader, strconv.FormatUint(deltaBase, 10))
			w.Header().Set(DeltaCountHeader, strconv.Itoa(n))
			w.Write(chain)
			return
		}
	}
	w.Header().Set("Content-Type", ContentTypeEnvelope)
	w.Header().Set(ModelHeader, s.scorer.Name())
	w.Header().Set(VersionHeader, strconv.FormatUint(v, 10))
	w.Write(raw)
}

// --- health and status -----------------------------------------------

// Health is the /healthz document. Live is always true from a serving
// process (the probe reaching the handler is the liveness signal);
// Ready is false while an envelope restore drains the replica or the
// server is closing (load balancers must stop picking it); Degraded is
// true when the replica is cut off from its trainer (it keeps serving
// its last snapshot, with StalenessSeconds reporting the lag).
type Health struct {
	Live             bool    `json:"live"`
	Ready            bool    `json:"ready"`
	Degraded         bool    `json:"degraded"`
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// Health collects the live/ready/degraded verdict.
func (s *Server) Health() Health {
	lag, degraded := s.staleness()
	h := Health{Live: true, Ready: s.Ready(), Degraded: degraded}
	if degraded {
		h.StalenessSeconds = lag.Seconds()
	}
	return h
}

// handleHealthz distinguishes live from ready: the response body always
// says live (the process answers), but the status is 503 while the
// server drains an install or shuts down, so ?readiness probes and
// load balancers stop routing to it without killing the pod.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := s.Health()
	if !h.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, h)
}

// Status is the /statusz document (also returned by Status() for
// in-process callers, e.g. the smoke driver).
type Status struct {
	Model               string        `json:"model"`
	Schema              stream.Schema `json:"schema"`
	StructureVersion    uint64        `json:"structure_version"`
	HasStructureVersion bool          `json:"has_structure_version"`
	Publishes           uint64        `json:"publishes,omitempty"`
	ServedRows          uint64        `json:"served_rows"`
	CoalescedBatches    uint64        `json:"coalesced_batches"`
	CoalescedRows       uint64        `json:"coalesced_rows"`
	CoalesceWaits       uint64        `json:"coalesce_waits"` // batches that armed the window timer
	Rejected            uint64        `json:"rejected"`
	Swaps               uint64        `json:"swaps"`
	DeltasServed        uint64        `json:"deltas_served,omitempty"`
	QueueDepth          int           `json:"queue_depth"`
	MaxInFlight         int           `json:"max_in_flight"`
	MaxBatch            int           `json:"max_batch"`
	CoalesceWindowMS    float64       `json:"coalesce_window_ms"`
	UptimeSeconds       float64       `json:"uptime_seconds"`
	Ready               bool          `json:"ready"`
	Degraded            bool          `json:"degraded"`
	StalenessSeconds    float64       `json:"staleness_seconds,omitempty"`
	ReplicasTotal       int           `json:"replicas_total,omitempty"`
	ReplicasHealthy     int           `json:"replicas_healthy,omitempty"`
	// Rolling replica-lag window over recent heartbeats (see
	// Registry.LagStats): fraction announcing the trainer's current
	// version, mean version lag, and window fill.
	ReplicaFreshRate float64 `json:"replica_fresh_rate,omitempty"`
	ReplicaMeanLag   float64 `json:"replica_mean_lag,omitempty"`
	ReplicaLagWindow int     `json:"replica_lag_window,omitempty"`
	// Race is the racing meta-scorer's scoreboard (per-arm windowed
	// error, leader identity, re-race counters) when the served model
	// is a race; nil otherwise.
	Race *race.Status `json:"race,omitempty"`
}

// Status collects the live serving metadata.
func (s *Server) Status() Status {
	v, hasV := s.scorer.StructureVersion()
	st := Status{
		Model:               s.scorer.Name(),
		Schema:              s.scorer.Schema(),
		StructureVersion:    v,
		HasStructureVersion: hasV,
		ServedRows:          s.served.Load(),
		CoalescedBatches:    s.co.batches.Load(),
		CoalescedRows:       s.co.rows.Load(),
		CoalesceWaits:       s.co.waits.Load(),
		Rejected:            s.rejected.Load(),
		Swaps:               s.swaps.Load(),
		DeltasServed:        s.deltasServed.Load(),
		QueueDepth:          len(s.inflight),
		MaxInFlight:         s.cfg.MaxInFlight,
		MaxBatch:            s.cfg.MaxBatch,
		CoalesceWindowMS:    float64(s.cfg.CoalesceWindow) / float64(time.Millisecond),
		UptimeSeconds:       time.Since(s.started).Seconds(),
		Ready:               s.Ready(),
	}
	if lag, degraded := s.staleness(); degraded {
		st.Degraded = true
		st.StalenessSeconds = lag.Seconds()
	}
	for _, rep := range s.reg.List(v, hasV) {
		st.ReplicasTotal++
		if rep.Healthy {
			st.ReplicasHealthy++
		}
	}
	if snap, ok := s.scorer.(*serve.SnapshotScorer); ok {
		st.Publishes = snap.Publishes()
	}
	if fresh, lag, n := s.reg.LagStats(); n > 0 {
		st.ReplicaFreshRate, st.ReplicaMeanLag, st.ReplicaLagWindow = fresh, lag, n
	}
	if rs, ok := s.scorer.(interface{ RaceStatus() race.Status }); ok {
		status := rs.RaceStatus()
		st.Race = &status
	}
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Status())
}

// Envelope exposes the cached capture path for in-process publishers
// (the trainer example pre-warms the cache with it).
func (s *Server) Envelope() ([]byte, uint64, error) { return s.envelope() }

// LoadEnvelope is a convenience for tests and tools: parse raw envelope
// bytes back into a classifier.
func LoadEnvelope(raw []byte) (any, error) { return persist.Load(bytes.NewReader(raw)) }
