// Package obsprof captures runtime profiles when the performance SLO
// burns. A latency regression caught by the burn-rate evaluator is only
// actionable if the evidence survives the incident: by the time an
// operator attaches to the pprof server, the goroutine pile-up or
// allocation storm that caused the p99 spike is usually gone. The
// harvester closes that gap — on a warn/violated transition it snapshots
// CPU, heap, and goroutine profiles (from the already-running
// -debug-addr pprof server when one is configured, else in-process) into
// a bounded on-disk ring, so regressions caught in CI or chaos tests
// come with profiles attached.
//
// Captures are metadata-disciplined like every other PProx telemetry
// surface: the capture directory name and meta.json carry the trigger
// reason, the SLO states, and the shuffle-epoch id of the breach
// exemplar — never a request id. Profiles themselves contain stacks and
// allocation sites, which describe the binary, not the traffic.
package obsprof

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config parameterizes the harvester.
type Config struct {
	// Dir is the capture ring directory. Empty disables the harvester
	// (the -profile-dir flag defaults off).
	Dir string
	// Source is the base URL of a running net/http/pprof server (the
	// binary's -debug-addr), e.g. "http://127.0.0.1:6060". Empty falls
	// back to in-process runtime/pprof capture.
	Source string
	// CPUSeconds is the CPU profile duration (default 2).
	CPUSeconds int
	// MaxCaptures bounds the on-disk ring; the oldest capture is
	// deleted to admit a new one (default 8).
	MaxCaptures int
	// Cooldown suppresses re-triggering within the window (default 30s)
	// so a flapping SLO cannot fill the ring with one incident.
	Cooldown time.Duration
	// Client overrides the HTTP client used against Source (tests).
	Client *http.Client
	// Logger logs capture outcomes. Nil disables logging.
	Logger *slog.Logger
	// Now overrides the clock for tests.
	Now func() time.Time
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CPUSeconds <= 0 {
		c.CPUSeconds = 2
	}
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = 8
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Meta is the capture's meta.json: why it was taken and which epoch it
// points at. Epoch granularity only — no request identifiers.
type Meta struct {
	Seq       uint64 `json:"seq"`
	Reason    string `json:"reason"`
	FromState string `json:"from_state"`
	ToState   string `json:"to_state"`
	// Epoch is the newest breach exemplar once the profiles are taken (0
	// when there is none yet). A transition seen on a read (a /metrics
	// scrape, a telemetry snapshot) can precede the release of the epoch
	// that holds the breach, so the read waits for the profiles. It stays
	// 0 when no epoch is released meanwhile, and under steady traffic it
	// may name a later breach than the one that tripped the capture.
	Epoch uint64 `json:"epoch"`
	// UnixSeconds is the capture time, whole seconds. Captures are rare
	// operator events, not per-request telemetry, so a coarse wall-clock
	// stamp is acceptable here (the ring lives on the operator's disk
	// and is never served).
	UnixSeconds int64    `json:"unix_seconds"`
	Profiles    []string `json:"profiles"`
}

// Harvester captures profiles into the ring. A nil *Harvester is valid
// and ignores triggers, so wiring can be unconditional.
type Harvester struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	lastCap  time.Time
	inflight bool
	wg       sync.WaitGroup
}

// New creates a harvester, creating Dir if needed. Returns nil (with no
// error) when cfg.Dir is empty — the disabled state.
func New(cfg Config) (*Harvester, error) {
	if cfg.Dir == "" {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obsprof: create profile dir: %w", err)
	}
	return &Harvester{cfg: cfg}, nil
}

// Trigger requests a capture for an SLO transition; epoch is read for
// meta.json once the profiles are taken. It returns immediately; the
// capture runs on its own goroutine. Triggers are dropped while a capture
// is in flight or within the cooldown window. Safe on a nil harvester.
func (h *Harvester) Trigger(reason string, epoch func() uint64, fromState, toState string) {
	if h == nil {
		return
	}
	now := h.cfg.Now()
	h.mu.Lock()
	if h.inflight || (!h.lastCap.IsZero() && now.Sub(h.lastCap) < h.cfg.Cooldown) {
		h.mu.Unlock()
		return
	}
	h.inflight = true
	h.lastCap = now
	h.seq++
	seq := h.seq
	h.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer func() {
			h.mu.Lock()
			h.inflight = false
			h.mu.Unlock()
		}()
		if err := h.capture(seq, reason, epoch, fromState, toState, now); err != nil && h.cfg.Logger != nil {
			h.cfg.Logger.Warn("profile capture failed", "reason", reason, "err", err)
		}
	}()
}

// Wait blocks until all in-flight captures finish (tests, shutdown).
// Safe on a nil harvester.
func (h *Harvester) Wait() {
	if h == nil {
		return
	}
	h.wg.Wait()
}

// Captures lists the capture directories currently in the ring, oldest
// first. Safe on a nil harvester.
func (h *Harvester) Captures() []string {
	if h == nil {
		return nil
	}
	ents, err := os.ReadDir(h.cfg.Dir)
	if err != nil {
		return nil
	}
	var dirs []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "cap-") {
			dirs = append(dirs, filepath.Join(h.cfg.Dir, e.Name()))
		}
	}
	sort.Strings(dirs)
	return dirs
}

// capture takes one snapshot into cap-<seq>-<slug>/ and prunes the ring.
func (h *Harvester) capture(seq uint64, reason string, epoch func() uint64, fromState, toState string, at time.Time) error {
	dir := filepath.Join(h.cfg.Dir, fmt.Sprintf("cap-%06d-%s", seq, slug(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := Meta{
		Seq:         seq,
		Reason:      reason,
		FromState:   fromState,
		ToState:     toState,
		UnixSeconds: at.Unix(),
	}
	kinds := []string{"cpu", "heap", "goroutine"}
	var firstErr error
	for _, kind := range kinds {
		path := filepath.Join(dir, kind+".pprof")
		var err error
		if h.cfg.Source != "" {
			err = h.captureHTTP(kind, path)
		} else {
			err = h.captureLocal(kind, path)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", kind, err)
			}
			continue
		}
		meta.Profiles = append(meta.Profiles, kind+".pprof")
	}
	meta.Epoch = epoch()
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "meta.json"), append(mb, '\n'), 0o644)
	}
	if firstErr == nil {
		firstErr = err
	}
	h.prune()
	if h.cfg.Logger != nil {
		h.cfg.Logger.Info("profile capture",
			"dir", dir, "reason", reason, "epoch", meta.Epoch,
			"profiles", len(meta.Profiles))
	}
	return firstErr
}

// captureHTTP pulls one profile from the -debug-addr pprof server.
func (h *Harvester) captureHTTP(kind, path string) error {
	var url string
	switch kind {
	case "cpu":
		url = fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", h.cfg.Source, h.cfg.CPUSeconds)
	default:
		url = fmt.Sprintf("%s/debug/pprof/%s", h.cfg.Source, kind)
	}
	resp, err := h.cfg.Client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pprof server: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// captureLocal snapshots one profile in-process, for binaries running
// without -debug-addr.
func (h *Harvester) captureLocal(kind, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch kind {
	case "cpu":
		if err = pprof.StartCPUProfile(f); err == nil {
			time.Sleep(time.Duration(h.cfg.CPUSeconds) * time.Second)
			pprof.StopCPUProfile()
		}
	case "heap":
		runtime.GC()
		err = pprof.Lookup("heap").WriteTo(f, 0)
	default:
		err = pprof.Lookup(kind).WriteTo(f, 0)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// prune deletes the oldest captures beyond MaxCaptures.
func (h *Harvester) prune() {
	dirs := h.Captures()
	for len(dirs) > h.cfg.MaxCaptures {
		os.RemoveAll(dirs[0])
		dirs = dirs[1:]
	}
}

// slug reduces a transition reason to a filesystem-safe directory
// component.
func slug(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteRune('-')
		}
		if b.Len() >= 48 {
			break
		}
	}
	out := strings.Trim(b.String(), "-")
	if out == "" {
		return "transition"
	}
	return out
}
