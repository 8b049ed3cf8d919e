// Package node is the one assembly of a served PProx proxy instance. The
// paper scales each layer horizontally with identical, identically
// provisioned instances (§5); pprox-proxy fills a Config from its flags,
// the in-process cluster fills one per instance from its Spec, and both
// build the instance through NewProxy: enclave, auditor checks,
// performance objectives, epoch observer and the operational routes. What differs between a process and the in-process deployment —
// how the next hop is reached, where the keys come from, which engines are
// shared — travels in Env.
package node

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"pprox/internal/audit"
	"pprox/internal/enclave"
	"pprox/internal/faults"
	"pprox/internal/metrics"
	"pprox/internal/obsprof"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/resilience"
	"pprox/internal/transport"
)

// Config carries one proxy instance's settings. Zero values select the
// defaults Resolve derives.
type Config struct {
	// Role selects the UA or IA layer.
	Role proxy.Role
	// Name labels the instance in metrics, logs, epoch records and the
	// auditor (default: the role, "ua" or "ia").
	Name string
	// Next is the base URL of the next hop: the IA layer for a UA, the
	// LRS for an IA.
	Next string
	// ShuffleSize is S (≤ 1 = off); ShuffleTimeout is the flush timer
	// (default DefaultShuffleTimeout).
	ShuffleSize    int
	ShuffleTimeout time.Duration
	// LRSConcurrency bounds an IA's concurrent LRS requests (0 = the proxy
	// default, negative = unbounded).
	LRSConcurrency int
	// PassThrough forwards without cryptography (m1).
	PassThrough bool
	// NoItemPseudonyms sends item identifiers to the LRS in the clear
	// (m4, §6.3).
	NoItemPseudonyms bool
	// EcallCost models the CPU every enclave crossing burns (0 = free).
	EcallCost time.Duration
	// Resilience is the next-hop fault policy; nil is single attempts.
	Resilience *resilience.Policy
	// Audit arms the privacy-SLO auditor; nil is off. TargetS defaults
	// to ShuffleSize.
	Audit *audit.Config
	// PerfSLO arms the latency-SLO evaluator; nil is off.
	PerfSLO *perfslo.Config
	// PerfQuantile is the quantile every latency objective constrains
	// (default 0.99).
	PerfQuantile float64
	// PerfThresholds overrides derived stage thresholds, in seconds, keyed
	// by stage (proxy.StageServe etc.).
	PerfThresholds map[string]float64
	// ProfileDir arms profile capture on a perf-SLO warn or violation.
	ProfileDir string
	// DrainTimeout bounds the graceful drain before stragglers are refused
	// (default 2×ShuffleTimeout + 5s: the final timer flush plus the
	// in-flight tail).
	DrainTimeout time.Duration
	// Faults arms deterministic fault injection on the application
	// routes (faults.ParseSpec syntax), drawn from FaultSeed.
	Faults    string
	FaultSeed uint64
}

// DefaultShuffleTimeout is the flush timer when Config leaves it zero.
const DefaultShuffleTimeout = 500 * time.Millisecond

// forwardObjective is the IA→LRS forward stage's default latency
// threshold: generous against an LRS answering in milliseconds.
const forwardObjective = 250 * time.Millisecond

// Resolve returns the configuration with every default derived and the
// settings validated: the configuration an instance actually runs.
func (c Config) Resolve() (Config, error) {
	switch {
	case c.Role != proxy.RoleUA && c.Role != proxy.RoleIA:
		return c, fmt.Errorf("node: role must be UA or IA, got %v", c.Role)
	case c.Next == "":
		return c, errors.New("node: next hop required")
	}
	if c.Name == "" {
		c.Name = strings.ToLower(c.Role.String())
	}
	if c.ShuffleTimeout <= 0 {
		c.ShuffleTimeout = DefaultShuffleTimeout
	}
	if c.PerfQuantile <= 0 || c.PerfQuantile >= 1 {
		c.PerfQuantile = 0.99
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2*c.ShuffleTimeout + 5*time.Second
	}
	return c, nil
}

// Env is what differs between a pprox-proxy process and the in-process
// deployment.
type Env struct {
	// Dialer reaches Next: a UA's frame links and an IA's LRS requests.
	Dialer transport.Dialer
	// Provision provisions the enclave; nil only with PassThrough.
	Provision *Provisioning
	// Registry receives the instance's metrics. Auditor and PerfSLO are
	// the SLO engines the instance feeds (NewAuditor, NewEvaluator; nil is
	// off) — one per process, one per deployment in process.
	Registry *metrics.Registry
	Auditor  *audit.Auditor
	PerfSLO  *perfslo.Evaluator
	// TraceSink is the log of the instance's epoch records: every record,
	// including the Batch-0 ones no epoch released; nil is no log.
	TraceSink func(proxy.EpochRecord)
	Logger    *slog.Logger
}

// Routes are the operational routes beside /metrics and /healthz every
// node of the deployment serves: /privacy and /perf for whichever engine
// runs.
func (e Env) Routes() map[string]http.Handler {
	routes := make(map[string]http.Handler, 2)
	if e.Auditor != nil {
		routes[audit.PrivacyPath] = e.Auditor.Handler()
	}
	if e.PerfSLO != nil {
		routes[perfslo.PerfPath] = e.PerfSLO.Handler()
	}
	return routes
}

// Provisioning is what an enclave is provisioned from: the attestation
// service that verifies its quote, the platform it launches on, and both
// layers' key material (an instance takes its own layer's).
type Provisioning struct {
	Attestation    *enclave.AttestationService
	Platform       *enclave.Platform
	UAKeys, IAKeys *proxy.LayerKeys
}

// NewProvisioning starts a local attestation service and platform for the
// layer keys. A production deployment verifies quotes remotely at the RaaS
// client; DESIGN.md §1 gives the SGX substitution.
func NewProvisioning(ua, ia *proxy.LayerKeys) (*Provisioning, error) {
	as, err := enclave.NewAttestationService()
	if err != nil {
		return nil, err
	}
	return &Provisioning{Attestation: as, Platform: enclave.NewPlatform(as), UAKeys: ua, IAKeys: ia}, nil
}

// enclave launches and provisions the instance's enclave.
func (p *Provisioning) enclave(c Config) (*enclave.Enclave, error) {
	if p == nil {
		return nil, errors.New("node: provisioning required unless pass-through")
	}
	var e *enclave.Enclave
	if c.Role == proxy.RoleUA {
		e = proxy.NewUAEnclave(p.Platform)
		if err := p.UAKeys.Provision(p.Attestation, e, proxy.UAIdentity); err != nil {
			return nil, err
		}
	} else {
		opts := proxy.IAOptions{DisableItemPseudonymization: c.NoItemPseudonyms}
		e = proxy.NewIAEnclave(p.Platform, opts)
		if err := p.IAKeys.Provision(p.Attestation, e, proxy.IAIdentityFor(opts)); err != nil {
			return nil, err
		}
	}
	e.SetTransitionCost(c.EcallCost)
	return e, nil
}

// NewAuditor builds the privacy-SLO auditor instances of the configuration
// feed, its instruments on reg; nil when Audit is off.
func NewAuditor(c Config, reg *metrics.Registry, logger *slog.Logger) *audit.Auditor {
	if c.Audit == nil {
		return nil
	}
	acfg := *c.Audit
	if acfg.TargetS == 0 {
		acfg.TargetS = c.ShuffleSize
	}
	a := audit.New(acfg)
	a.SetLogger(logger)
	a.RegisterMetrics(reg)
	return a
}

// NewEvaluator builds the performance-SLO evaluator instances of the
// configuration feed and, with ProfileDir, the harvester its warn and
// violated transitions trigger. profileSource is a running pprof server
// to capture from (empty: in-process capture). Both are nil when PerfSLO
// is off. The caller registers the evaluator's metrics once every
// instance has added its objectives.
func NewEvaluator(c Config, profileSource string, logger *slog.Logger) (*perfslo.Evaluator, *obsprof.Harvester, error) {
	if c.PerfSLO == nil {
		return nil, nil, nil
	}
	harvester, err := obsprof.New(obsprof.Config{Dir: c.ProfileDir, Source: profileSource, Logger: logger})
	if err != nil {
		return nil, nil, err
	}
	eval := perfslo.New(*c.PerfSLO)
	eval.SetLogger(logger)
	eval.OnTransition = func(from, to perfslo.State, reason string) {
		if to != perfslo.StateOK {
			harvester.Trigger(reason, eval.NewestExemplar, from.String(), to.String())
		}
	}
	return eval, harvester, nil
}

// Proxy is one assembled proxy instance.
type Proxy struct {
	// Config is the resolved configuration the instance runs.
	Config Config
	Layer  *proxy.Layer
	// Handler serves the layer behind /metrics, /healthz and Env.Routes.
	Handler http.Handler

	faults *faults.Injector
	// stopRecords stops the unshuffled IA's record timer; recordsDone
	// closes once it has.
	stopRecords, recordsDone chan struct{}
}

// NewProxy assembles one proxy instance: the provisioned enclave, the
// layer, its auditor checks, latency objectives and epoch log,
// each epoch record fed to them, and the handler to serve. Serve Handler,
// and Close once the listener has stopped.
func NewProxy(c Config, env Env) (_ *Proxy, err error) {
	if c, err = c.Resolve(); err != nil {
		return nil, err
	}
	pc := proxy.Config{
		Role:           c.Role,
		Next:           c.Next,
		Dialer:         env.Dialer,
		ShuffleSize:    c.ShuffleSize,
		ShuffleTimeout: c.ShuffleTimeout,
		PassThrough:    c.PassThrough,
		Resilience:     c.Resilience,
	}
	if c.Role == proxy.RoleIA {
		pc.LRSConcurrency = c.LRSConcurrency
	}
	if !c.PassThrough {
		if pc.Enclave, err = env.Provision.enclave(c); err != nil {
			return nil, err
		}
	}
	layer, err := proxy.New(pc)
	if err != nil {
		return nil, err
	}
	p := &Proxy{Config: c, Layer: layer}
	defer func() {
		if err != nil {
			p.Close()
		}
	}()
	var logger *slog.Logger
	if env.Logger != nil {
		logger = env.Logger.With("node", c.Name)
	}
	layer.SetLogger(logger)
	layer.RegisterMetrics(env.Registry, c.Name)

	if env.TraceSink != nil && layer.Shuffler() == nil {
		// An unshuffled IA releases no epochs, so the flush timer writes
		// its records instead, to the log only. Batching still hides
		// per-request timing, but only shuffling gives the 1/S bound.
		p.stopRecords, p.recordsDone = make(chan struct{}), make(chan struct{})
		go recordEvery(layer, c.ShuffleTimeout, p.stopRecords, p.recordsDone)
	}
	if a := env.Auditor; a != nil {
		if br := layer.Breaker(); br != nil {
			a.AddCheck("breaker open on "+c.Name, func() bool { return br.State() != 0 })
		}
		if e := layer.Enclave(); e != nil {
			a.AddViolationCheck("enclave compromised on "+c.Name, e.Compromised)
			a.SetKeyBaseline(c.Role.String())
		}
	}
	if env.PerfSLO != nil {
		addObjectives(env.PerfSLO, layer, c)
	}
	observeEpochs(layer, env)

	var app http.Handler = layer
	if c.Faults != "" {
		rules, err := faults.ParseSpec(c.Faults)
		if err != nil {
			return nil, fmt.Errorf("node: fault spec: %w", err)
		}
		// Only application traffic is injected; /metrics and /healthz
		// stay honest so breakers and operators see the real state.
		p.faults = faults.NewInjector(c.FaultSeed, rules...)
		app = p.faults.Middleware(app)
	}
	p.Handler = metrics.MuxRoutes(env.Registry, layer.Health, env.Routes(), app)
	return p, nil
}

// Close releases the instance's shuffled messages and waits for its
// in-flight epochs. Call it after the listener serving Handler has stopped.
func (p *Proxy) Close() {
	if p.stopRecords != nil {
		close(p.stopRecords)
		<-p.recordsDone
	}
	p.Layer.Close()
	if p.faults != nil {
		p.faults.Close()
	}
}

// Drain retires layers without splitting a shuffle epoch (DESIGN.md §4d):
// each soft-drains — serving on, but answering Connection: close so
// pooled HTTP and frame links evict themselves — until nothing is in
// flight or buffered, its final epoch leaving whole through the shuffler's
// own flush. A layer still busy when ctx expires refuses new work and gets
// a second's grace; Drain then returns the first such timeout.
func Drain(ctx context.Context, layers ...*proxy.Layer) (err error) {
	for _, l := range layers {
		l.BeginDrain()
	}
	for _, l := range layers {
		if werr := l.AwaitDrained(ctx); werr != nil {
			err = cmp.Or(err, werr)
			l.RefuseNew()
			grace, cancel := context.WithTimeout(context.Background(), time.Second)
			_ = l.AwaitDrained(grace)
			cancel()
		}
	}
	return err
}

// recordEvery writes the layer's Batch-0 record every interval until stop
// closes, then closes done.
func recordEvery(layer *proxy.Layer, interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			layer.Record()
		case <-stop:
			return
		}
	}
}

// observeEpochs hands each of the layer's epoch records to the log, and
// each released epoch to the engines that watch it: all of them read the
// one record, so the log and the /perf exemplars name the same epoch
// numbers.
func observeEpochs(layer *proxy.Layer, env Env) {
	a, eval, sink := env.Auditor, env.PerfSLO, env.TraceSink
	layer.SetEpochObserver(func(rec proxy.EpochRecord) {
		if sink != nil {
			sink(rec)
		}
		if rec.Batch == 0 {
			return // no epoch released: the log's only
		}
		if a != nil {
			a.ObserveEpoch(rec.Node, rec.Batch)
		}
		if eval != nil {
			eval.Sample(rec.Node, rec.Epoch, rec.Stages)
		}
	})
}

// addObjectives installs the latency objectives the instance can observe:
// the serve envelope everywhere, the shuffle wait where a shuffler runs,
// the request-path ECALL where an enclave runs, and the forward hop on an
// IA (the IA→LRS leg the paper's cost model singles out).
func addObjectives(eval *perfslo.Evaluator, layer *proxy.Layer, c Config) {
	stages := []string{proxy.StageServe}
	if c.ShuffleSize > 0 {
		stages = append(stages, proxy.StageShuffleWait)
	}
	if !c.PassThrough {
		stages = append(stages, proxy.StageEcallDecrypt)
	}
	if c.Role == proxy.RoleIA {
		stages = append(stages, proxy.StageForward)
	}
	for _, stage := range stages {
		if h := layer.StageHistogram(stage); h != nil {
			eval.AddObjective(stage, c.Name, h, c.PerfQuantile, threshold(stage, c))
		}
	}
}

// threshold is a stage's latency threshold in seconds. The derived
// defaults are generous multiples of the flush timer and hop costs — they
// flag sustained regressions, not slow requests — and each is overridable.
func threshold(stage string, c Config) float64 {
	if t, ok := c.PerfThresholds[stage]; ok {
		return t
	}
	switch stage {
	case proxy.StageShuffleWait:
		// A message should never wait much past the flush timer.
		return (2 * c.ShuffleTimeout).Seconds()
	case proxy.StageEcallDecrypt:
		return proxy.EcallDecryptObjective(c.ShuffleSize, c.EcallCost).Seconds()
	case proxy.StageForward:
		return forwardObjective.Seconds()
	default: // StageServe: shuffle wait plus everything else.
		return (2*c.ShuffleTimeout + 500*time.Millisecond).Seconds()
	}
}
