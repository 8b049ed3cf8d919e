// Package enclave simulates the Intel SGX trusted-execution substrate that
// PProx runs its proxy layers in. The paper's implementation uses the Intel
// SGX SDK; this package reproduces, in process, the properties the PProx
// protocol actually depends on:
//
//   - measurement-based remote attestation before key provisioning (§2.2),
//   - an isolation boundary: code outside the enclave (the "server" part of
//     the proxy, §5) handles only opaque bytes and can never read the
//     provisioned secrets,
//   - Enclave Page Cache (EPC) accounting for in-enclave state such as the
//     key-value store holding pending response metadata (§5),
//   - the possibility, central to the adversary model (§2.3), that an
//     attacker mounts a side-channel attack against one enclave and leaks
//     its secrets — modelled by Compromise — together with a breach
//     detector in the spirit of Déjà Vu / Varys (§2.3, footnote 1).
//
// Substitution note (DESIGN.md §1): real SGX is unavailable in this
// environment; the simulation preserves the attested-provisioning and
// single-enclave-compromise behaviours that the security analysis (§6)
// exercises.
package enclave

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// PageSize is the SGX EPC page granularity.
const PageSize = 4096

// DefaultEPCPages models the ~93 MB of usable EPC on the paper's SGX v1
// NUC machines.
const DefaultEPCPages = 23808

// Errors reported by the enclave runtime.
var (
	// ErrNotProvisioned reports an ECALL that needs secrets before any
	// were provisioned.
	ErrNotProvisioned = errors.New("enclave: secrets not provisioned")

	// ErrEPCExhausted reports an allocation beyond the enclave page cache.
	ErrEPCExhausted = errors.New("enclave: EPC exhausted")

	// ErrQuoteInvalid reports a remote-attestation quote that does not
	// verify against the platform's attestation service.
	ErrQuoteInvalid = errors.New("enclave: attestation quote invalid")

	// ErrUnknownEcall reports a call to an unregistered entry point.
	ErrUnknownEcall = errors.New("enclave: unknown ECALL")

	// ErrNoSecret reports a Secrets.Derived lookup of a secret that was
	// not provisioned.
	ErrNoSecret = errors.New("enclave: secret not provisioned")

	// ErrCrossingClosed reports a Submit on a crossing after its Close.
	ErrCrossingClosed = errors.New("enclave: crossing closed")
)

// CodeIdentity names the code loaded into an enclave. Its measurement is
// what remote attestation proves.
type CodeIdentity struct {
	Name    string
	Version string
}

// Measurement is the SGX MRENCLAVE equivalent: a digest of the enclave's
// code identity.
type Measurement [sha256.Size]byte

// Measure computes the measurement of a code identity.
func Measure(ci CodeIdentity) Measurement {
	return sha256.Sum256([]byte(ci.Name + "\x00" + ci.Version))
}

// Secrets is the read-only view of provisioned key material that ECALL
// handlers receive. It is only ever constructed inside the enclave.
type Secrets interface {
	// Get returns the named secret, or false if it was not provisioned.
	Get(name string) ([]byte, bool)
	// Derived returns the object build makes of the named secret — a
	// parsed key, say — building it on first use and keeping it resident
	// for as long as this secret set is installed: Provision replaces the
	// set, and every derived object with it. A missing secret is
	// ErrNoSecret; a build error is returned and nothing is kept. The
	// result is shared between concurrent handlers, so it must be safe
	// for concurrent use.
	Derived(name string, build func(raw []byte) (any, error)) (any, error)
}

// secretSet is one provisioned set of secrets plus the objects handlers
// derived from them. A set is never modified after Provision installs it
// (only the memo grows), so handlers use it without the enclave lock.
type secretSet struct {
	raw map[string][]byte

	mu      sync.RWMutex
	derived map[string]any
}

func (s *secretSet) Get(name string) ([]byte, bool) {
	v, ok := s.raw[name]
	return v, ok
}

func (s *secretSet) Derived(name string, build func(raw []byte) (any, error)) (any, error) {
	s.mu.RLock()
	v, ok := s.derived[name]
	s.mu.RUnlock()
	if ok {
		return v, nil
	}
	raw, ok := s.raw[name]
	if !ok {
		return nil, ErrNoSecret
	}
	v, err := build(raw)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.derived[name]; ok {
		return first, nil // a concurrent handler built it first
	}
	s.derived[name] = v
	return v, nil
}

// Handler is an ECALL entry point: it runs inside the enclave with access
// to the provisioned secrets and to the in-EPC key-value store, processing
// opaque bytes prepared by the untrusted server.
type Handler func(s Secrets, kv *KV, in []byte) ([]byte, error)

// Enclave is one simulated SGX enclave instance.
type Enclave struct {
	id       string
	identity CodeIdentity
	meas     Measurement
	platform *Platform

	mu          sync.Mutex
	kemPriv     *ecdh.PrivateKey
	secrets     *secretSet
	secretPages int // EPC pages the installed secret set holds
	provisioned bool
	compromised bool
	handlers    map[string]Handler
	kv          *KV

	epcPages     int
	epcUsedPages int

	ecalls        uint64 // enclave crossings (an Ecall and an entered Crossing each count 1)
	msgs          uint64 // messages processed across all crossings
	observer      atomic.Pointer[EcallObserver]
	batchObserver atomic.Pointer[BatchObserver]
	transitionNs  atomic.Int64 // modeled CPU cost per crossing (0 = free)
}

// SetTransitionCost models the CPU a real SGX world switch burns on
// every enclave crossing — register save/restore, TLB flush, and the
// cache/EPC repopulation that follows (tens of microseconds on the
// paper's SGX v1 hardware, more under EPC paging pressure). The default
// is zero: crossings are free, as in a plain function call. When set,
// every crossing — one per Ecall, one per Crossing however many messages
// it carries — spins the CPU for d, so experiments measure what epoch
// batching actually amortizes. Safe to call concurrently with traffic.
func (e *Enclave) SetTransitionCost(d time.Duration) {
	e.transitionNs.Store(int64(d))
}

// TransitionCost returns the modeled per-crossing cost SetTransitionCost
// installed.
func (e *Enclave) TransitionCost() time.Duration {
	return time.Duration(e.transitionNs.Load())
}

// crossTransition pays the modeled world-switch cost. It busy-spins
// rather than sleeping: a transition occupies the core, it does not
// yield it.
func (e *Enclave) crossTransition() {
	ns := e.transitionNs.Load()
	if ns <= 0 {
		return
	}
	deadline := time.Now().Add(time.Duration(ns))
	for time.Now().Before(deadline) {
	}
}

// EcallObserver receives the name, handler time, and outcome of every
// crossing, for the observability layer (ECALL count/duration metrics and
// hop-local tracing): one event per Ecall, and one per Crossing when it
// ends, carrying the crossing's busy time (crossing.go) and a nil error.
// It runs after the handler returns, outside the enclave lock, so it
// must be cheap and must not call back into the enclave.
type EcallObserver func(name string, d time.Duration, err error)

// SetEcallObserver installs (or, with nil, removes) the ECALL observer.
// Safe to call concurrently with Ecall.
func (e *Enclave) SetEcallObserver(fn EcallObserver) {
	if fn == nil {
		e.observer.Store(nil)
		return
	}
	e.observer.Store(&fn)
}

// BatchObserver receives one finished Crossing: the entry point, how many
// messages the crossing carried, and its busy time — the sum of its
// handlers' run times, not the wall time it stayed open. Like
// EcallObserver it runs outside the enclave lock, once the crossing has
// ended. Ecall does not fire it (a plain ECALL is a crossing of one
// message; the legacy observer covers it).
type BatchObserver func(name string, n int, d time.Duration)

// SetBatchObserver installs (or, with nil, removes) the batch-crossing
// observer. Safe to call concurrently with open crossings.
func (e *Enclave) SetBatchObserver(fn BatchObserver) {
	if fn == nil {
		e.batchObserver.Store(nil)
		return
	}
	e.batchObserver.Store(&fn)
}

// ID returns the unique enclave instance identifier.
func (e *Enclave) ID() string { return e.id }

// Identity returns the code identity the enclave was launched with.
func (e *Enclave) Identity() CodeIdentity { return e.identity }

// Measurement returns the enclave's measurement.
func (e *Enclave) Measurement() Measurement { return e.meas }

// Platform returns the platform the enclave runs on.
func (e *Enclave) Platform() *Platform { return e.platform }

// Register installs an ECALL entry point. Registration happens at enclave
// construction, before any attestation, and is part of the measured code.
func (e *Enclave) Register(name string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[name] = h
}

// Quote produces a remote-attestation quote over the given nonce, signed by
// the platform's attestation service (the stand-in for Intel's quoting
// enclave + IAS).
func (e *Enclave) Quote(nonce []byte) Quote {
	return e.platform.attestation.quote(e.meas, nonce)
}

// Provision installs the layer's key material after the provisioner has
// verified a quote. Keys are copied so the caller cannot retain aliases
// into enclave memory. Provisioning again (key rotation) replaces the
// whole set in one step: the previous set's EPC pages are released, the
// objects handlers derived from it go with it, and the next message —
// on a new crossing or one already open — sees only the new keys. A set
// the EPC cannot hold is refused and the previous one stays installed.
func (e *Enclave) Provision(secrets map[string][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	pages := 0
	raw := make(map[string][]byte, len(secrets))
	for k, v := range secrets {
		raw[k] = append([]byte(nil), v...)
		pages += pagesFor(len(v))
	}
	if err := e.allocLocked(pages - e.secretPages); err != nil {
		return fmt.Errorf("provision secrets: %w", err)
	}
	e.secretPages = pages
	e.secrets = &secretSet{raw: raw, derived: make(map[string]any)}
	e.provisioned = true
	return nil
}

// Provisioned reports whether secrets have been installed.
func (e *Enclave) Provisioned() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.provisioned
}

// Ecall transfers control into the enclave: the named handler runs with
// access to the secrets and the in-EPC KV store. The input and output
// buffers are the only data crossing the boundary.
func (e *Enclave) Ecall(name string, in []byte) ([]byte, error) {
	e.mu.Lock()
	h, err := e.handlerLocked(name)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	secrets := e.secrets
	kv := e.kv
	e.ecalls++
	e.msgs++
	e.mu.Unlock()
	e.crossTransition()

	start := time.Now()
	out, err := h(secrets, kv, in)
	if obs := e.observer.Load(); obs != nil {
		(*obs)(name, time.Since(start), err)
	}
	return out, err
}

// handlerLocked resolves an entry point for a crossing about to be made:
// it must be registered and the enclave provisioned.
func (e *Enclave) handlerLocked(name string) (Handler, error) {
	h, ok := e.handlers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEcall, name)
	}
	if !e.provisioned {
		return nil, ErrNotProvisioned
	}
	return h, nil
}

// EcallCount returns the number of enclave crossings served (a batched
// crossing counts once), used by the breach detector's performance
// monitoring and the crossings-per-request measurements.
func (e *Enclave) EcallCount() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ecalls
}

// MessageCount returns the number of messages processed across all
// crossings: Ecall adds one, a Crossing one per message it admitted.
func (e *Enclave) MessageCount() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.msgs
}

// KV returns the enclave's in-EPC key-value store, holding "the information
// necessary for handling requests responses on their way back from the
// LRS" (§5). It is accessible to ECALL handlers.
func (e *Enclave) KV() *KV { return e.kv }

// EPCUsage returns used and total EPC pages.
func (e *Enclave) EPCUsage() (used, total int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epcUsedPages, e.epcPages
}

func (e *Enclave) allocLocked(pages int) error {
	if e.epcUsedPages+pages > e.epcPages {
		return fmt.Errorf("%w: need %d pages, %d of %d in use",
			ErrEPCExhausted, pages, e.epcUsedPages, e.epcPages)
	}
	e.epcUsedPages += pages
	return nil
}

func (e *Enclave) alloc(pages int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.allocLocked(pages)
}

func (e *Enclave) free(pages int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epcUsedPages -= pages
	if e.epcUsedPages < 0 {
		e.epcUsedPages = 0
	}
}

func pagesFor(bytes int) int {
	if bytes == 0 {
		return 0
	}
	return (bytes + PageSize - 1) / PageSize
}

// Compromise models a successful side-channel attack (§2.3): the adversary
// extracts every secret provisioned to this enclave. The enclave keeps
// functioning — the paper's adversary "does not interfere with the
// functionality of the system" — but the platform's breach detector is
// informed and will fire after its detection latency. The returned map is
// the adversary's loot.
func (e *Enclave) Compromise() map[string][]byte {
	e.mu.Lock()
	loot := make(map[string][]byte)
	if e.secrets != nil {
		for k, v := range e.secrets.raw {
			loot[k] = append([]byte(nil), v...)
		}
	}
	e.compromised = true
	e.mu.Unlock()
	e.platform.notifyCompromise(e)
	return loot
}

// Compromised reports whether this enclave's secrets have leaked.
func (e *Enclave) Compromised() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.compromised
}

// Platform simulates one SGX-capable machine together with its attestation
// service. Enclaves launched on platforms sharing an AttestationService can
// be verified by the same provisioner, as with Intel's IAS.
type Platform struct {
	attestation *AttestationService

	mu       sync.Mutex
	enclaves []*Enclave
	detector *BreachDetector
	nextID   int
}

// NewPlatform creates a platform backed by the given attestation service.
func NewPlatform(as *AttestationService) *Platform {
	return &Platform{attestation: as}
}

// SetBreachDetector installs the side-channel breach detector notified on
// Compromise.
func (p *Platform) SetBreachDetector(d *BreachDetector) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.detector = d
}

// Launch creates an enclave running the given code identity with the
// default EPC size.
func (p *Platform) Launch(ci CodeIdentity) *Enclave {
	return p.LaunchWithEPC(ci, DefaultEPCPages)
}

// LaunchWithEPC creates an enclave with an explicit EPC budget.
func (p *Platform) LaunchWithEPC(ci CodeIdentity, epcPages int) *Enclave {
	p.mu.Lock()
	p.nextID++
	id := fmt.Sprintf("%s-%s#%d", ci.Name, ci.Version, p.nextID)
	p.mu.Unlock()

	e := &Enclave{
		id:       id,
		identity: ci,
		meas:     Measure(ci),
		platform: p,
		handlers: make(map[string]Handler),
		epcPages: epcPages,
	}
	e.kv = newKV(e)

	p.mu.Lock()
	p.enclaves = append(p.enclaves, e)
	p.mu.Unlock()
	return e
}

// Enclaves returns the enclaves launched on this platform.
func (p *Platform) Enclaves() []*Enclave {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Enclave(nil), p.enclaves...)
}

func (p *Platform) notifyCompromise(e *Enclave) {
	p.mu.Lock()
	d := p.detector
	p.mu.Unlock()
	if d != nil {
		d.observe(e)
	}
}

// AttestationService is the stand-in for Intel's quoting infrastructure: it
// signs quotes produced by genuine enclaves and verifies them for remote
// provisioners. The HMAC key models the Intel-rooted trust anchor ("we
// trust Intel for the certification of genuine SGX-enabled CPUs", §2.2).
type AttestationService struct {
	key []byte
}

// NewAttestationService creates an attestation trust anchor.
func NewAttestationService() (*AttestationService, error) {
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("attestation key: %w", err)
	}
	return &AttestationService{key: key}, nil
}

// Quote binds an enclave measurement to a verifier-chosen nonce.
type Quote struct {
	Measurement Measurement
	Nonce       []byte
	MAC         []byte
}

func (as *AttestationService) quote(m Measurement, nonce []byte) Quote {
	mac := hmac.New(sha256.New, as.key)
	mac.Write(m[:])
	mac.Write(nonce)
	return Quote{Measurement: m, Nonce: append([]byte(nil), nonce...), MAC: mac.Sum(nil)}
}

// Verify checks a quote's authenticity and that it matches the expected
// measurement and nonce. This is what the RaaS client application does
// before provisioning layer keys (§4.1).
func (as *AttestationService) Verify(q Quote, want Measurement, nonce []byte) error {
	mac := hmac.New(sha256.New, as.key)
	mac.Write(q.Measurement[:])
	mac.Write(q.Nonce)
	if !hmac.Equal(mac.Sum(nil), q.MAC) {
		return fmt.Errorf("%w: bad signature", ErrQuoteInvalid)
	}
	if q.Measurement != want {
		return fmt.Errorf("%w: measurement mismatch", ErrQuoteInvalid)
	}
	if !hmac.Equal(q.Nonce, nonce) {
		return fmt.Errorf("%w: nonce mismatch (replay?)", ErrQuoteInvalid)
	}
	return nil
}

// AttestAndProvision performs the full provisioning handshake: challenge
// the enclave with a fresh nonce, verify the quote against the expected
// measurement, then install the secrets. It returns ErrQuoteInvalid if the
// enclave is not running the expected code.
func AttestAndProvision(as *AttestationService, e *Enclave, want Measurement, secrets map[string][]byte) error {
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return fmt.Errorf("attestation nonce: %w", err)
	}
	q := e.Quote(nonce)
	if err := as.Verify(q, want, nonce); err != nil {
		return err
	}
	return e.Provision(secrets)
}

// BreachDetector models side-channel attack detection in the spirit of
// Déjà Vu and Varys (§2.3): reported attacks complete in tens of minutes
// while degrading enclave performance, so a monitor can notice and trigger
// countermeasures. The detection latency is configurable; on detection the
// countermeasure callback runs once per breached enclave.
type BreachDetector struct {
	latency time.Duration
	onEvent func(*Enclave)

	mu       sync.Mutex
	detected map[string]time.Time
	timers   []*time.Timer
}

// NewBreachDetector creates a detector firing countermeasures after the
// given detection latency.
func NewBreachDetector(latency time.Duration, countermeasure func(*Enclave)) *BreachDetector {
	return &BreachDetector{
		latency:  latency,
		onEvent:  countermeasure,
		detected: make(map[string]time.Time),
	}
}

func (d *BreachDetector) observe(e *Enclave) {
	d.mu.Lock()
	if _, dup := d.detected[e.ID()]; dup {
		d.mu.Unlock()
		return
	}
	d.detected[e.ID()] = time.Now()
	t := time.AfterFunc(d.latency, func() {
		if d.onEvent != nil {
			d.onEvent(e)
		}
	})
	d.timers = append(d.timers, t)
	d.mu.Unlock()
}

// Detections returns the enclave IDs with observed breaches.
func (d *BreachDetector) Detections() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.detected))
	for id := range d.detected {
		ids = append(ids, id)
	}
	return ids
}

// Stop cancels pending countermeasure timers (for tests and shutdown).
func (d *BreachDetector) Stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, t := range d.timers {
		t.Stop()
	}
	d.timers = nil
}
