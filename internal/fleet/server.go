package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// HTTP API paths. The registry is hosted by pprox-ops (or any control
// plane) and spoken to by pprox-proxy instances via the Agent below.
const (
	RegisterPath   = "/fleet/register"
	HeartbeatPath  = "/fleet/heartbeat"
	DrainPath      = "/fleet/drain"
	DeregisterPath = "/fleet/deregister"
	MembersPath    = "/fleet/members"
	// OverviewPath serves the registry host's Overview: membership and
	// recent scaling decisions (OverviewHandler).
	OverviewPath = "/fleet"
)

// wireEndpoint is the request body for all mutation endpoints.
type wireEndpoint struct {
	Service string `json:"service"`
	Addr    string `json:"addr"`
}

// Server exposes a Registry over HTTP.
type Server struct {
	Registry *Registry
}

// Routes returns the handler set to merge into a mux.
func (s *Server) Routes() map[string]http.Handler {
	return map[string]http.Handler{
		RegisterPath:   http.HandlerFunc(s.handleRegister),
		HeartbeatPath:  http.HandlerFunc(s.handleHeartbeat),
		DrainPath:      http.HandlerFunc(s.handleDrain),
		DeregisterPath: http.HandlerFunc(s.handleDeregister),
		MembersPath:    http.HandlerFunc(s.handleMembers),
	}
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request) (wireEndpoint, bool) {
	var ep wireEndpoint
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return ep, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 4096))
	if err != nil || json.Unmarshal(body, &ep) != nil || ep.Service == "" || ep.Addr == "" {
		http.Error(w, "bad endpoint body", http.StatusBadRequest)
		return ep, false
	}
	return ep, true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	ep, ok := s.decode(w, r)
	if !ok {
		return
	}
	state := s.Registry.Register(ep.Service, ep.Addr)
	writeJSON(w, http.StatusOK, map[string]string{"state": state.String()})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	ep, ok := s.decode(w, r)
	if !ok {
		return
	}
	if !s.Registry.Heartbeat(ep.Service, ep.Addr) {
		// Unknown endpoint: pruned or never registered. 404 tells the
		// agent to re-register rather than keep heartbeating a ghost.
		http.Error(w, "unknown endpoint", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": "ok"})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	ep, ok := s.decode(w, r)
	if !ok {
		return
	}
	if !s.Registry.BeginDrain(ep.Service, ep.Addr) {
		http.Error(w, "unknown endpoint", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"state": StateDraining.String()})
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	ep, ok := s.decode(w, r)
	if !ok {
		return
	}
	s.Registry.Deregister(ep.Service, ep.Addr)
	writeJSON(w, http.StatusOK, map[string]string{"state": "gone"})
}

func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Generation uint64     `json:"generation"`
		Members    []Endpoint `json:"members"`
	}{s.Registry.Generation(), s.Registry.Membership()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// AgentConfig wires an Agent.
type AgentConfig struct {
	// BaseURL is the registry host, e.g. "http://ops:7070".
	BaseURL string
	// Service and Addr identify this instance.
	Service, Addr string
	// Client defaults to a 5-second-timeout http.Client.
	Client *http.Client
	// Interval is the heartbeat period. Zero means 2s.
	Interval time.Duration
	// Logger, when set, receives heartbeat failures.
	Logger func(format string, args ...any)
}

// Agent is the pprox-proxy side of the registry protocol: register on
// boot, heartbeat on an interval (re-registering if the registry forgot
// us), announce drain, deregister on exit.
type Agent struct {
	cfg AgentConfig

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
}

// NewAgent builds an agent. BaseURL, Service and Addr are required.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.BaseURL == "" || cfg.Service == "" || cfg.Addr == "" {
		return nil, fmt.Errorf("fleet: agent needs BaseURL, Service and Addr")
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	return &Agent{cfg: cfg, stop: make(chan struct{})}, nil
}

func (a *Agent) post(ctx context.Context, path string) (int, error) {
	body, _ := json.Marshal(wireEndpoint{Service: a.cfg.Service, Addr: a.cfg.Addr})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("fleet: %s returned %d", path, resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// Register announces this instance to the registry.
func (a *Agent) Register(ctx context.Context) error {
	_, err := a.post(ctx, RegisterPath)
	return err
}

// Drain asks the registry to stop routing to this instance.
func (a *Agent) Drain(ctx context.Context) error {
	_, err := a.post(ctx, DrainPath)
	return err
}

// Deregister removes this instance from the registry.
func (a *Agent) Deregister(ctx context.Context) error {
	_, err := a.post(ctx, DeregisterPath)
	return err
}

// Start registers and then heartbeats until Stop. A 404 heartbeat
// (registry pruned us, or it restarted) triggers a re-register.
func (a *Agent) Start(ctx context.Context) error {
	if err := a.Register(ctx); err != nil {
		return err
	}
	go a.heartbeatLoop()
	return nil
}

func (a *Agent) heartbeatLoop() {
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			ctx, cancel := context.WithTimeout(context.Background(), a.cfg.Interval)
			code, err := a.post(ctx, HeartbeatPath)
			if code == http.StatusNotFound {
				err = a.Register(ctx)
			}
			cancel()
			if err != nil && a.cfg.Logger != nil {
				a.cfg.Logger("fleet agent: heartbeat: %v", err)
			}
		}
	}
}

// Stop ends the heartbeat loop. It does not deregister; callers decide
// whether the exit is a drain (Deregister after the final epoch) or a
// crash (let staleness pruning collect the entry).
func (a *Agent) Stop() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.stopped {
		a.stopped = true
		close(a.stop)
	}
}

// OverviewHandler serves ov's fleet overview as JSON on GET OverviewPath.
func OverviewHandler(ov func() *Overview) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, ov())
	})
}
