package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"pprox/internal/audit"
	"pprox/internal/client"
	"pprox/internal/hopwire"
	"pprox/internal/lrs/engine"
	"pprox/internal/message"
	"pprox/internal/metrics"
	"pprox/internal/node"
	"pprox/internal/obsprof"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/resilience"
	"pprox/internal/stub"
	"pprox/internal/transport"
)

// Spec describes an in-process deployment of the paper's testbed.
type Spec struct {
	// ProxyEnabled deploys the two PProx layers; otherwise clients talk
	// straight to the LRS (baseline b-configurations).
	ProxyEnabled bool
	// UA and IA are instance counts per proxy layer.
	UA, IA int
	// Encryption selects the full cryptographic path; when false the
	// proxies run in pass-through mode and clients send cleartext (m1).
	Encryption bool
	// ItemPseudonyms pseudonymizes item identifiers (off in m4).
	ItemPseudonyms bool
	// RSAOnlyKeys generates the paper's key material (§4.1): RSA-2048-OAEP
	// and no sealed-box key, so clients and enclaves run the suite the
	// paper measured. SpecFromMicro and SpecFromMacro set it — Tables 2–3
	// and Figures 6–10 are reproduced on RSA; everything else deploys
	// what pprox-keygen ships, both keys (DESIGN.md §4l).
	RSAOnlyKeys bool
	// Shuffle is S (0 = off) and ShuffleTimeout the flush timer.
	Shuffle        int
	ShuffleTimeout time.Duration
	// Batch is ignored: the epoch pipeline (DESIGN.md §4f) is the only
	// request path, so there is nothing to switch.
	//
	// Deprecated: kept so the frozen benchmark keeps compiling; the next
	// benchmark PR deletes it.
	Batch bool
	// LRSConcurrency bounds each IA instance's concurrent LRS requests
	// (0 = the proxy default, negative = unbounded).
	LRSConcurrency int
	// Hopwire is ignored: the UA→IA hop always speaks the binary frame
	// protocol and the IA→LRS hop plain REST (DESIGN.md §4h), so there
	// is nothing to switch.
	//
	// Deprecated: kept so the frozen benchmark keeps compiling; the next
	// benchmark PR deletes it.
	Hopwire bool
	// EcallCost models the CPU each enclave crossing burns (SGX world
	// switch + TLB/cache repopulation). Zero — the default — keeps
	// crossings free as plain function calls; benchmarks measuring what
	// the epoch pipeline amortizes set it to hardware-like values
	// (enclave.SetTransitionCost).
	EcallCost time.Duration
	// UseStub serves the nginx-style static stub instead of the real
	// engine (micro-benchmarks); StubDelay models its service time.
	UseStub   bool
	StubDelay time.Duration
	// LRSFrontends is the number of REST front-end servers sharing the
	// engine (≥ 1).
	LRSFrontends int
	// EngineConfig overrides the engine defaults when set.
	EngineConfig *engine.Config
	// LRSShards splits the engine's event log over a consistent-hash
	// ring keyed by the user pseudonym (0 = single shard).
	LRSShards int
	// LRSWALDir, when set, WAL-backs every event-log shard under this
	// directory so accepted posts survive an LRS process crash.
	LRSWALDir string
	// LRSWALSync fsyncs every WAL append before acknowledging the post,
	// extending durability to OS crashes and power loss.
	LRSWALSync bool
	// LRSIncremental folds each accepted primary event into the CCO
	// counts online; batch training becomes the compaction fallback.
	LRSIncremental bool
	// LRSMiddleware, when set, wraps the LRS handler — e.g. with an
	// adversary network tap for the security experiments.
	LRSMiddleware func(http.Handler) http.Handler
	// Trace logs every proxy layer's epoch records (proxy.EpochRecord)
	// into Deployment.Traces.
	Trace bool
	// Resilience arms fault handling across the deployment: every proxy
	// layer retries/breaks per the policy, and the balancer ejects
	// backends whose dials keep failing. Nil deploys without fault
	// handling (single attempts, no ejection).
	Resilience *resilience.Policy
	// NodeMiddleware, when set, wraps every node's HTTP handler (proxy
	// instances and LRS front ends alike) with addr naming the node
	// (e.g. "ia-1", "lrs-0"). The chaos tests use it to install fault
	// injectors and network taps on selected nodes.
	NodeMiddleware func(addr string, h http.Handler) http.Handler
	// Audit deploys the privacy-SLO auditor: every proxy layer feeds it
	// shuffle-epoch releases, breaker/ejection/compromise state is
	// sampled as checks, its metrics join the deployment registry, and
	// every node additionally serves the /privacy report. A zero-valued
	// Config is usable — TargetS defaults to Spec.Shuffle.
	Audit *audit.Config
	// PerfSLO deploys the performance-SLO evaluator: every proxy layer
	// gets per-stage latency objectives (UA: end-to-end serve, shuffle
	// wait, ECALL; IA: end-to-end serve, IA→LRS forward, ECALL) sampled
	// at shuffle-epoch granularity, its metrics join the deployment
	// registry, and every node additionally serves the /perf report. A
	// zero-valued Config is usable (default 5m/1h windows).
	PerfSLO *perfslo.Config
	// PerfThresholds overrides the derived per-stage latency thresholds,
	// in seconds, keyed by stage label (proxy.StageServe etc.).
	PerfThresholds map[string]float64
	// ProfileDir arms triggered profile capture: on a performance-SLO
	// warn/violated transition the deployment snapshots CPU + heap +
	// goroutine profiles into this bounded on-disk ring. Requires
	// PerfSLO; empty disables capture.
	ProfileDir string
	// Logger, when set, is the deployment-wide structured logger
	// (obslog-redacted by construction at the callers): layers log
	// request failures, the engine logs redacted ingest/training events,
	// and the auditor logs SLO transitions, each under a "node"
	// attribute.
	Logger *slog.Logger
}

// SpecFromMicro translates a Table 2 row into a deployable spec. The SGX
// column of Table 2 does not change the functional path — with or without
// enclaves the same bytes flow — so it is a cost-model flag consumed by
// the sim package, not by Deploy.
func SpecFromMicro(c MicroConfig) Spec {
	return Spec{
		ProxyEnabled:   true,
		UA:             c.UA,
		IA:             c.IA,
		Encryption:     c.Encryption,
		ItemPseudonyms: c.ItemPseudonyms,
		RSAOnlyKeys:    true,
		Shuffle:        c.Shuffle,
		UseStub:        true,
		LRSFrontends:   1,
	}
}

// SpecFromMacro translates a Table 3 row into a deployable spec.
func SpecFromMacro(c MacroConfig) Spec {
	return Spec{
		ProxyEnabled:   c.Proxy,
		UA:             c.UA,
		IA:             c.IA,
		Encryption:     c.Proxy,
		ItemPseudonyms: c.Proxy,
		RSAOnlyKeys:    true,
		Shuffle:        c.Shuffle,
		LRSFrontends:   c.LRSFrontends,
	}
}

// EpochLog collects the proxy layers' epoch records, by node.
type EpochLog struct {
	mu   sync.Mutex
	recs map[string][]proxy.EpochRecord
}

func (l *EpochLog) add(r proxy.EpochRecord) {
	l.mu.Lock()
	l.recs[r.Node] = append(l.recs[r.Node], r)
	l.mu.Unlock()
}

// Records returns a node's records in the order it wrote them.
func (l *EpochLog) Records(node string) []proxy.EpochRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.recs[node])
}

// Deployment is a running in-process testbed.
type Deployment struct {
	Net      *transport.Network
	Balancer *Balancer
	// Entry is the base URL clients talk to: the UA layer's service
	// address, or the LRS service for baseline deployments.
	Entry string
	// Engine is the shared LRS engine (nil when the stub serves).
	Engine *engine.Engine
	// Stub is the static LRS stand-in (nil when the engine serves).
	Stub *stub.Server
	// UAKeys and IAKeys are the layer key material (nil without
	// encryption).
	UAKeys, IAKeys *proxy.LayerKeys
	// UALayers and IALayers are the proxy instances.
	UALayers, IALayers []*proxy.Layer
	// Metrics is the deployment-wide registry; every node serves it on
	// GET /metrics (plus /healthz), so the bench injector can scrape
	// per-stage histograms exactly as an operator would.
	Metrics *metrics.Registry
	// Traces collects the layers' epoch records when Spec.Trace is set.
	Traces *EpochLog
	// Auditor is the deployment's privacy-SLO engine (nil unless
	// Spec.Audit is set). Every node serves its report on /privacy.
	Auditor *audit.Auditor
	// PerfSLO is the deployment's performance-SLO engine (nil unless
	// Spec.PerfSLO is set). Every node serves its report on /perf.
	PerfSLO *perfslo.Evaluator
	// Profiles is the triggered-profile harvester (nil unless
	// Spec.ProfileDir is set alongside Spec.PerfSLO).
	Profiles *obsprof.Harvester

	spec Spec
	// mu guards the node bookkeeping below, which chaos tests read
	// concurrently with Close.
	mu sync.Mutex
	// nodes tracks every served node by address so chaos tests can kill
	// and restart individual instances; order preserves bring-up order
	// for reverse shutdown.
	nodes map[string]*runningNode
	order []string
	// proxies maps a node address to its proxy instance, for lookup and
	// teardown.
	proxies map[string]*node.Proxy

	// env is what every proxy instance is built from — the deployment's
	// network, keys and engines.
	env node.Env
}

// runningNode is one server the deployment runs, restartable in place
// for crash/recovery experiments.
type runningNode struct {
	handler http.Handler
	// serve brings the node up on a listener: hopwire.ServeHTTPAndFrames
	// for a proxy, which takes the UA's frames beside HTTP, and
	// transport.Serve for an LRS front end, which speaks only REST.
	serve func(net.Listener, http.Handler) func() error

	mu       sync.Mutex
	shutdown func() error // nil while killed
}

// Deploy brings the spec up on a fresh in-memory network.
func Deploy(spec Spec) (d *Deployment, err error) {
	if spec.LRSFrontends <= 0 {
		spec.LRSFrontends = 1
	}
	if spec.ProxyEnabled && (spec.UA <= 0 || spec.IA <= 0) {
		return nil, errors.New("cluster: proxy deployment needs at least one instance per layer")
	}

	d = &Deployment{
		Net:     transport.NewNetwork(),
		spec:    spec,
		Metrics: metrics.NewRegistry(),
		Traces:  &EpochLog{recs: make(map[string][]proxy.EpochRecord)},
		nodes:   make(map[string]*runningNode),
		proxies: make(map[string]*node.Proxy),
	}
	// The shared settings of every instance: the SLO engines derive from
	// them, and a spec no instance could run is refused before anything
	// comes up.
	shared, err := d.nodeConfig(proxy.RoleIA, "").Resolve()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	d.Balancer = NewBalancer(d.Net)
	if spec.Resilience != nil {
		pol := spec.Resilience.WithDefaults()
		d.Balancer.SetBreakerPolicy(pol.BreakerThreshold, pol.BreakerCooldown)
	}
	d.Balancer.RegisterMetrics(d.Metrics)
	metrics.RegisterRuntimeMetrics(d.Metrics)
	// Capture the deployment for cleanup: error paths `return nil, err`,
	// which nils the named return before the defer runs.
	built := d
	defer func() {
		if err != nil {
			built.Close()
		}
	}()

	d.env = node.Env{
		Dialer:   d.Balancer,
		Registry: d.Metrics,
		Logger:   spec.Logger,
	}
	if spec.ProxyEnabled && spec.Encryption {
		newKeys := proxy.NewLayerKeys
		if spec.RSAOnlyKeys {
			newKeys = proxy.NewRSAOnlyLayerKeys
		}
		if d.UAKeys, err = newKeys(); err != nil {
			return nil, err
		}
		if d.IAKeys, err = newKeys(); err != nil {
			return nil, err
		}
		// One shared hop-envelope key: the UA→IA link travels as
		// randomized ciphertext and retried requests can be re-wrapped
		// so they are unlinkable to the attempt they repeat.
		if err = proxy.PairLinkKey(d.UAKeys, d.IAKeys); err != nil {
			return nil, err
		}
		if d.env.Provision, err = node.NewProvisioning(d.UAKeys, d.IAKeys); err != nil {
			return nil, err
		}
	}
	// One auditor and one evaluator for the whole deployment: every
	// instance feeds them, every node serves their reports.
	d.Auditor = node.NewAuditor(shared, d.Metrics, d.logger("auditor"))
	if d.PerfSLO, d.Profiles, err = node.NewEvaluator(shared, "", d.logger("perfslo")); err != nil {
		return nil, err
	}
	d.env.Auditor, d.env.PerfSLO = d.Auditor, d.PerfSLO
	if spec.Trace {
		d.env.TraceSink = d.Traces.add
	}

	if err := d.deployLRS(spec); err != nil {
		return nil, err
	}

	if !spec.ProxyEnabled {
		if d.PerfSLO != nil {
			d.PerfSLO.RegisterMetrics(d.Metrics)
		}
		d.Entry = "http://lrs"
		return d, nil
	}

	// Proxy layers: IA first (talks to the LRS), then UA.
	iaBackends := make([]string, spec.IA)
	for i := range iaBackends {
		iaBackends[i] = fmt.Sprintf("ia-%d", i)
		if err := d.addProxy(proxy.RoleIA, iaBackends[i]); err != nil {
			return nil, err
		}
	}
	d.Balancer.Register("ia", iaBackends...)
	uaBackends := make([]string, spec.UA)
	for i := range uaBackends {
		uaBackends[i] = fmt.Sprintf("ua-%d", i)
		if err := d.addProxy(proxy.RoleUA, uaBackends[i]); err != nil {
			return nil, err
		}
	}
	d.Balancer.Register("ua", uaBackends...)

	// Backend ejection starves the surviving shufflers' buffers, so it is
	// a degraded-path SLO signal in its own right.
	if d.Auditor != nil {
		for _, svc := range []string{"ua", "ia", "lrs"} {
			d.Auditor.AddCheck("backends ejected from "+svc, func() bool {
				return len(d.Balancer.Ejected(svc)) > 0
			})
		}
	}

	// Objectives are complete once every layer is served; only now can
	// the evaluator's per-objective series register.
	if d.PerfSLO != nil {
		d.PerfSLO.RegisterMetrics(d.Metrics)
	}

	d.Entry = "http://ua"
	return d, nil
}

// nodeConfig is one proxy instance's configuration under the spec; every
// instance of a layer runs the same one under its own address.
func (d *Deployment) nodeConfig(role proxy.Role, addr string) node.Config {
	s := d.spec
	c := node.Config{
		Role:             role,
		Name:             addr,
		Next:             "http://ia",
		ShuffleSize:      s.Shuffle,
		ShuffleTimeout:   s.ShuffleTimeout,
		PassThrough:      !s.Encryption,
		NoItemPseudonyms: !s.ItemPseudonyms,
		EcallCost:        s.EcallCost,
		Resilience:       s.Resilience,
		Audit:            s.Audit,
		PerfSLO:          s.PerfSLO,
		PerfThresholds:   s.PerfThresholds,
		ProfileDir:       s.ProfileDir,
	}
	if role == proxy.RoleIA {
		c.Next = "http://lrs"
		c.LRSConcurrency = s.LRSConcurrency
	}
	return c
}

// addProxy builds one proxy instance under the spec and serves it at addr
// behind the node's operational mux, so scraping "http://ua-0/metrics"
// over the in-memory network works exactly like against a real instance.
func (d *Deployment) addProxy(role proxy.Role, addr string) error {
	p, err := node.NewProxy(d.nodeConfig(role, addr), d.env)
	if err != nil {
		return err
	}
	if err := d.serve(addr, p.Handler, hopwire.ServeHTTPAndFrames); err != nil {
		p.Close()
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.proxies[addr] = p
	if role == proxy.RoleUA {
		d.UALayers = append(d.UALayers, p.Layer)
	} else {
		d.IALayers = append(d.IALayers, p.Layer)
	}
	return nil
}

// Proxy returns the proxy instance serving addr (e.g. "ia-0"), nil when
// none does.
func (d *Deployment) Proxy(addr string) *node.Proxy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.proxies[addr]
}

// logger is the deployment logger scoped to one node, nil without one.
func (d *Deployment) logger(node string) *slog.Logger {
	if d.spec.Logger == nil {
		return nil
	}
	return d.spec.Logger.With("node", node)
}

func (d *Deployment) deployLRS(spec Spec) error {
	var handler http.Handler
	if spec.UseStub {
		names := make([]string, message.MaxRecommendations)
		for i := range names {
			names[i] = fmt.Sprintf("stub-item-%04d", i)
		}
		items := names
		if spec.ProxyEnabled && spec.Encryption && spec.ItemPseudonyms {
			var err error
			if items, err = d.IAKeys.PseudonymizeItems(names); err != nil {
				return err
			}
		}
		s, err := stub.NewWithItems(items)
		if err != nil {
			return err
		}
		s.Delay = spec.StubDelay
		d.Stub = s
		handler = s
	} else {
		cfg := engine.DefaultConfig()
		if spec.EngineConfig != nil {
			cfg = *spec.EngineConfig
		}
		if spec.LRSShards > 0 {
			cfg.Shards = spec.LRSShards
		}
		if spec.LRSWALDir != "" {
			cfg.WALDir = spec.LRSWALDir
		}
		if spec.LRSWALSync {
			cfg.WALSync = true
		}
		if spec.LRSIncremental {
			cfg.Incremental = true
		}
		eng, err := engine.Open(cfg)
		if err != nil {
			return fmt.Errorf("open engine: %w", err)
		}
		d.Engine = eng
		d.Engine.SetLogger(d.logger("lrs"))
		handler = engine.NewHandler(d.Engine)
	}

	var health metrics.HealthFunc
	if d.Stub != nil {
		d.Stub.RegisterMetrics(d.Metrics, "lrs")
		health = d.Stub.Health
	} else {
		instrument := d.Engine.RegisterMetrics(d.Metrics, "lrs")
		handler = instrument(handler)
		health = d.Engine.Health
	}

	if spec.LRSMiddleware != nil {
		handler = spec.LRSMiddleware(handler)
	}
	handler = metrics.MuxRoutes(d.Metrics, health, d.env.Routes(), handler)
	backends := make([]string, spec.LRSFrontends)
	for i := range backends {
		addr := fmt.Sprintf("lrs-%d", i)
		backends[i] = addr
		if err := d.serve(addr, handler, transport.Serve); err != nil {
			return err
		}
	}
	d.Balancer.Register("lrs", backends...)
	return nil
}

func (d *Deployment) serve(addr string, h http.Handler, serve func(net.Listener, http.Handler) func() error) error {
	if d.spec.NodeMiddleware != nil {
		h = d.spec.NodeMiddleware(addr, h)
	}
	l, err := d.Net.Listen(addr)
	if err != nil {
		return err
	}
	n := &runningNode{handler: h, serve: serve, shutdown: serve(l, h)}
	d.mu.Lock()
	d.nodes[addr] = n
	d.order = append(d.order, addr)
	d.mu.Unlock()
	return nil
}

// Kill stops one node's server and unbinds its address: dials to it are
// refused, exactly as after a process crash. The chaos experiments use it
// together with Restart.
func (d *Deployment) Kill(addr string) error {
	d.mu.Lock()
	n := d.nodes[addr]
	d.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: no node %q", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shutdown == nil {
		return nil // already down
	}
	shutdown := n.shutdown
	n.shutdown = nil
	return shutdown()
}

// Restart brings a killed node back up on its address with its original
// handler — the crashed process rejoining the deployment. Balancer
// breakers re-admit it on their next trial dial.
func (d *Deployment) Restart(addr string) error {
	d.mu.Lock()
	n := d.nodes[addr]
	d.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: no node %q", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shutdown != nil {
		return nil // already up
	}
	l, err := d.Net.Listen(addr)
	if err != nil {
		return err
	}
	n.shutdown = n.serve(l, n.handler)
	return nil
}

// HTTPClient returns a client whose connections are balanced across the
// deployment's services, suitable for the workload injector.
func (d *Deployment) HTTPClient(timeout time.Duration) *http.Client {
	return transport.HTTPClient(d.Balancer, timeout)
}

// Client returns a user-side library instance pointed at the deployment's
// entry, encrypted or plain to match the spec.
func (d *Deployment) Client(timeout time.Duration) *client.Client {
	httpClient := d.HTTPClient(timeout)
	if d.spec.ProxyEnabled && d.spec.Encryption {
		return client.New(proxy.Bundle(d.UAKeys, d.IAKeys), httpClient, d.Entry)
	}
	return client.NewPlain(httpClient, d.Entry)
}

// Close shuts every server down and closes the network, waiting out any
// in-flight profile capture.
func (d *Deployment) Close() error {
	d.Profiles.Wait()
	d.mu.Lock()
	order := append([]string(nil), d.order...)
	proxies := make(map[string]*node.Proxy, len(d.proxies))
	for addr, p := range d.proxies {
		proxies[addr] = p
	}
	d.mu.Unlock()
	var firstErr error
	for i := len(order) - 1; i >= 0; i-- {
		if err := d.Kill(order[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		if p := proxies[order[i]]; p != nil {
			p.Close()
		}
	}
	if err := d.Net.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
