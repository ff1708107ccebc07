package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// RegistryConfig tunes the trainer-side replica registry.
type RegistryConfig struct {
	// TTL is how long a heartbeat keeps a replica fresh; a replica
	// silent for longer than TTL is unhealthy (default 3s).
	TTL time.Duration
	// MaxVersionLag health-gates replicas by envelope-version lag: a
	// replica more than this many structure versions behind the
	// trainer is unhealthy until it catches up (0 disables the gate).
	MaxVersionLag uint64
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.TTL <= 0 {
		c.TTL = 3 * time.Second
	}
	return c
}

// ReplicaInfo is one registry entry as listed by GET /v1/replicas: the
// replica's announcement plus the health verdict computed at listing
// time.
type ReplicaInfo struct {
	// ID is the replica's self-chosen identity (stable across
	// heartbeats).
	ID string `json:"id"`
	// URL is where the replica serves predictions.
	URL string `json:"url"`
	// Version is the replica's last installed envelope version.
	Version uint64 `json:"version"`
	// HasVersion is false while the replica has installed nothing.
	HasVersion bool `json:"has_version"`
	// Ready is the replica's own readiness (false while draining or
	// restoring).
	Ready bool `json:"ready"`
	// Healthy is the registry's verdict: fresh heartbeat AND ready AND
	// within the version-lag gate. Load balancers pick healthy
	// replicas only.
	Healthy bool `json:"healthy"`
	// LagVersions is how many structure versions the replica trails
	// the trainer (0 when the trainer tracks no version).
	LagVersions uint64 `json:"lag_versions"`
	// AgeSeconds is how long ago the last heartbeat arrived.
	AgeSeconds float64 `json:"age_seconds"`
}

// ReplicaAnnounce is the heartbeat body a replica POSTs to
// /v1/replicas. Announcing is registering: the first heartbeat creates
// the entry, later ones refresh it, and Leaving deletes it.
type ReplicaAnnounce struct {
	ID         string `json:"id"`
	URL        string `json:"url"`
	Version    uint64 `json:"version"`
	HasVersion bool   `json:"has_version"`
	Ready      bool   `json:"ready"`
	Leaving    bool   `json:"leaving,omitempty"`
}

// ReplicaList is the GET /v1/replicas document.
type ReplicaList struct {
	TrainerVersion    uint64        `json:"trainer_version"`
	HasTrainerVersion bool          `json:"has_trainer_version"`
	Replicas          []ReplicaInfo `json:"replicas"`
}

type replicaEntry struct {
	ann      ReplicaAnnounce
	lastSeen time.Time
}

// Registry tracks a fleet of serving replicas by heartbeat. The
// trainer's Server hosts one behind POST/GET /v1/replicas; health is
// computed at listing time from heartbeat freshness, the replica's own
// readiness (drain on swap: a replica mid-restore reports not-ready
// and is health-gated out until the install finishes), and the
// envelope-version lag gate.
type Registry struct {
	cfg RegistryConfig
	now func() time.Time

	mu       sync.Mutex
	replicas map[string]*replicaEntry
	// lag is the rolling replica-lag tracker behind /statusz: every
	// heartbeat observes whether the replica was fresh (zero version
	// lag) plus its lag in versions, windowed over the most recent
	// announcements (see stats.Preq).
	lag *stats.Preq
}

// lagWindow is how many heartbeats the rolling lag display covers.
const lagWindow = 256

// NewRegistry builds a Registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{
		cfg:      cfg.withDefaults(),
		now:      time.Now,
		replicas: make(map[string]*replicaEntry),
		lag:      stats.NewPreq(lagWindow),
	}
}

// Upsert registers or refreshes a replica from its announcement.
func (r *Registry) Upsert(a ReplicaAnnounce) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicas[a.ID] = &replicaEntry{ann: a, lastSeen: r.now()}
}

// ObserveLag feeds one heartbeat into the rolling lag tracker: the
// "correct" channel records whether the replica announced the trainer's
// current version (fresh), the loss channel its lag in versions.
// Heartbeats from replicas that have installed nothing yet, or arriving
// while the trainer tracks no version, are skipped — they carry no lag
// signal.
func (r *Registry) ObserveLag(a ReplicaAnnounce, trainerVersion uint64, hasTrainerVersion bool) {
	if !hasTrainerVersion || !a.HasVersion {
		return
	}
	var lag uint64
	if trainerVersion > a.Version {
		lag = trainerVersion - a.Version
	}
	r.mu.Lock()
	r.lag.Observe(lag == 0, float64(lag))
	r.mu.Unlock()
}

// LagStats reports the rolling heartbeat-lag window: the fraction of
// recent heartbeats that were fresh, the mean version lag, and how many
// heartbeats the window currently holds.
func (r *Registry) LagStats() (freshRate, meanLag float64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lag.Accuracy(), r.lag.MeanLoss(), r.lag.Len()
}

// Remove deletes a replica (explicit deregistration).
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.replicas, id)
}

// Len returns the registered replica count (healthy or not).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.replicas)
}

// List returns every registered replica with health computed against
// the trainer's current version, sorted by ID. Entries silent for
// longer than 10×TTL are reaped.
func (r *Registry) List(trainerVersion uint64, hasTrainerVersion bool) []ReplicaInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]ReplicaInfo, 0, len(r.replicas))
	for id, e := range r.replicas {
		age := now.Sub(e.lastSeen)
		if age > 10*r.cfg.TTL {
			delete(r.replicas, id)
			continue
		}
		info := ReplicaInfo{
			ID:         e.ann.ID,
			URL:        e.ann.URL,
			Version:    e.ann.Version,
			HasVersion: e.ann.HasVersion,
			Ready:      e.ann.Ready,
			AgeSeconds: age.Seconds(),
		}
		if hasTrainerVersion && e.ann.HasVersion && trainerVersion > e.ann.Version {
			info.LagVersions = trainerVersion - e.ann.Version
		}
		info.Healthy = age <= r.cfg.TTL && e.ann.Ready &&
			(r.cfg.MaxVersionLag == 0 || info.LagVersions <= r.cfg.MaxVersionLag)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- replica-side heartbeat client -----------------------------------

// Announce POSTs one heartbeat to the trainer's registry.
func Announce(ctx context.Context, client *http.Client, trainerURL string, a ReplicaAnnounce) error {
	if client == nil {
		client = httpClient(nil, 5*time.Second)
	}
	if a.ID == "" {
		return fmt.Errorf("follow: announce needs a replica ID")
	}
	body, err := json.Marshal(a)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, trainerURL+"/v1/replicas", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follow: announce: %s", resp.Status)
	}
	return nil
}

// RunHeartbeats announces state() to the trainer every interval until
// ctx is cancelled, then sends one best-effort leaving announcement so
// the registry drops the replica immediately instead of waiting out
// the TTL. Announce failures are absorbed — the registry's TTL is the
// real liveness signal.
func RunHeartbeats(ctx context.Context, client *http.Client, trainerURL string, interval time.Duration, state func() ReplicaAnnounce) {
	if interval <= 0 {
		interval = time.Second
	}
	if client == nil {
		client = httpClient(nil, 5*time.Second)
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		_ = Announce(ctx, client, trainerURL, state())
		select {
		case <-ctx.Done():
			bye := state()
			bye.Leaving = true
			byeCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = Announce(byeCtx, client, trainerURL, bye)
			cancel()
			return
		case <-t.C:
		}
	}
}

// --- registry HTTP handlers (mounted by the Server) -------------------

func (s *Server) handleReplicaAnnounce(w http.ResponseWriter, r *http.Request) {
	var a ReplicaAnnounce
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&a); err != nil {
		http.Error(w, "bad announce body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if a.ID == "" {
		http.Error(w, "announce needs an id", http.StatusBadRequest)
		return
	}
	v, hasV := s.scorer.StructureVersion()
	if a.Leaving {
		s.reg.Remove(a.ID)
	} else {
		s.reg.Upsert(a)
		s.reg.ObserveLag(a, v, hasV)
	}
	writeJSON(w, ReplicaList{TrainerVersion: v, HasTrainerVersion: hasV, Replicas: s.reg.List(v, hasV)})
}

func (s *Server) handleReplicaList(w http.ResponseWriter, _ *http.Request) {
	v, hasV := s.scorer.StructureVersion()
	writeJSON(w, ReplicaList{TrainerVersion: v, HasTrainerVersion: hasV, Replicas: s.reg.List(v, hasV)})
}
