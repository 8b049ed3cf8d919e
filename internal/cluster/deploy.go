package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/audit"
	"pprox/internal/client"
	"pprox/internal/enclave"
	"pprox/internal/fleet"
	"pprox/internal/hopwire"
	"pprox/internal/lrs/engine"
	"pprox/internal/message"
	"pprox/internal/metrics"
	"pprox/internal/obsprof"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/reccache"
	"pprox/internal/resilience"
	"pprox/internal/stub"
	"pprox/internal/telemetry"
	"pprox/internal/trace"
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
	// Workers sizes each proxy instance's data-processing pool.
	Workers int
	// Batch is ignored: the epoch pipeline (DESIGN.md §4f) is the only
	// request path, so there is nothing to switch.
	//
	// Deprecated: kept so the frozen benchmark keeps compiling; the next
	// benchmark PR deletes it.
	Batch bool
	// LRSConcurrency bounds each IA instance's concurrent LRS requests
	// (0 = the proxy default, negative = unbounded).
	LRSConcurrency int
	// Hopwire switches the inter-hop transport (UA→IA and IA→LRS) to the
	// persistent-connection binary frame protocol (DESIGN.md §4h). Every
	// node's listener then sniffs each connection and serves frames and
	// HTTP side by side, and each layer's hop client falls back to HTTP
	// against a peer that does not answer in frames — so an unmodified,
	// HTTP-only LRS keeps working.
	Hopwire bool
	// EcallCost models the CPU each enclave crossing burns (SGX world
	// switch + TLB/cache repopulation). Zero — the default — keeps
	// crossings free as plain function calls; benchmarks measuring what
	// the epoch pipeline amortizes set it to hardware-like values
	// (enclave.SetTransitionCost).
	EcallCost time.Duration
	// Cache enables the in-enclave recommendation cache on every IA
	// instance (requires Encryption: lookups and fills are ECALLs).
	// CacheTTL and CachePages override the reccache defaults when set;
	// CachePages bounds each cache's share of its enclave's EPC budget.
	Cache      bool
	CacheTTL   time.Duration
	CachePages int
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
	// Trace enables privacy-safe hop-local tracing on every proxy
	// layer; records collect in Deployment.Traces at shuffle-epoch
	// granularity.
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
	// PerfQuantile is the objectives' quantile (default 0.99).
	PerfQuantile float64
	// PerfThresholds overrides the derived per-stage latency thresholds,
	// in seconds, keyed by stage label (proxy.StageServe etc.).
	PerfThresholds map[string]float64
	// Fleet deploys the live route registry (DESIGN.md §4j): every
	// UA/IA/LRS endpoint registers with it, the balancer consumes its
	// routable sets instead of the static backend lists, and membership
	// changes are epoch-aligned — new endpoints are admitted at shuffle-
	// epoch boundaries, departing ones drain their final epoch whole.
	// Requires ProxyEnabled. Spec.Elastic implies Fleet.
	Fleet bool
	// Elastic arms the closed autoscaling loop on top of the fleet
	// registry: a reconciler samples live signals (UA request rate,
	// shuffle occupancy, and — with OpsAddr set — collector goodput) and
	// drives the deployed pair count through AddPair/DrainPair.
	Elastic *ElasticSpec
	// OpsAddr deploys the fleet telemetry plane: a collector node
	// (cmd/pprox-ops equivalent) served at this in-memory address, plus
	// one telemetry emitter per node streaming epoch-granular snapshots
	// to it — over hopwire frames when Spec.Hopwire is set, HTTP
	// otherwise (the emitters' frame probe latches the fallback). The
	// collector gets its OWN registry: it models an operator service
	// outside the trust boundary, so it must not share the deployment's.
	// Empty disables telemetry.
	OpsAddr string
	// TelemetryInterval is every emitter's heartbeat: the slowest a node
	// pushes snapshots when no shuffle epochs fire (idle proxies, LRS
	// front ends). Default: ShuffleTimeout, or 250ms when that is unset
	// too.
	TelemetryInterval time.Duration
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
	// Traces collects the layers' trace exports when Spec.Trace is set.
	Traces *trace.Collector
	// Auditor is the deployment's privacy-SLO engine (nil unless
	// Spec.Audit is set). Every node serves its report on /privacy.
	Auditor *audit.Auditor
	// PerfSLO is the deployment's performance-SLO engine (nil unless
	// Spec.PerfSLO is set). Every node serves its report on /perf.
	PerfSLO *perfslo.Evaluator
	// Profiles is the triggered-profile harvester (nil unless
	// Spec.ProfileDir is set alongside Spec.PerfSLO).
	Profiles *obsprof.Harvester
	// RecCaches are the per-IA-instance recommendation caches, indexed
	// like IALayers (nil without Spec.Cache).
	RecCaches []*reccache.Cache
	// Ops is the fleet telemetry collector (nil unless Spec.OpsAddr).
	// It serves /fleet and /telemetry at Spec.OpsAddr.
	Ops *telemetry.Collector
	// OpsMetrics is the collector node's own registry, separate from the
	// deployment registry because the collector sits outside the trust
	// boundary.
	OpsMetrics *metrics.Registry
	// Registry is the live fleet route registry (nil unless Spec.Fleet).
	Registry *fleet.Registry
	// Reconciler is the autoscaling loop closing live signals over the
	// registry (nil unless Spec.Elastic). With ElasticSpec.Interval ≤ 0
	// it never ticks on its own; tests drive it with Tick.
	Reconciler *fleet.Reconciler

	spec Spec
	// mu guards the mutable membership state below — nodes, order, the
	// layer slices and the pair bookkeeping — which the elastic fleet
	// mutates after deploy, concurrently with chaos tests and Close.
	mu sync.Mutex
	// nodes tracks every served node by address so chaos tests can kill
	// and restart individual instances; order preserves bring-up order
	// for reverse shutdown.
	nodes map[string]*runningNode
	order []string
	// layers maps a node address to its proxy layer, for drain victim
	// lookup; drained holds retired layers so the auditor can keep
	// checking their drain reports stayed clean.
	layers  map[string]*proxy.Layer
	drained []*proxy.Layer
	// nextUA/nextIA number the next spawned instance of each layer.
	nextUA, nextIA int

	// Builder state Deploy captures so AddPair can provision new
	// instances exactly like the initial ones.
	platform    *enclave.Platform
	attestation *enclave.AttestationService
	iaOpts      proxy.IAOptions
	interClient *http.Client

	// drainMu serializes DrainPair calls so two concurrent drains cannot
	// pick the same victim pair.
	drainMu sync.Mutex

	fleetEmitter  *telemetry.Emitter
	stopReconcile func()
}

// runningNode is one HTTP server the deployment runs, restartable in
// place for crash/recovery experiments.
type runningNode struct {
	handler http.Handler
	// emitter is the node's telemetry emitter (nil without Spec.OpsAddr
	// or on the ops node itself). Kill pauses it — the in-process
	// handler survives a "crash", so without the pause a killed node
	// would keep reporting and never go stale at the collector.
	emitter *telemetry.Emitter

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
	if spec.Cache && !(spec.ProxyEnabled && spec.Encryption) {
		return nil, errors.New("cluster: recommendation cache needs the encrypted proxy path")
	}
	if spec.Elastic != nil {
		spec.Fleet = true
	}
	if spec.Fleet && !spec.ProxyEnabled {
		return nil, errors.New("cluster: fleet mode needs the proxy deployed")
	}

	d = &Deployment{
		Net:     transport.NewNetwork(),
		spec:    spec,
		Metrics: metrics.NewRegistry(),
		Traces:  trace.NewCollector(),
		nodes:   make(map[string]*runningNode),
		layers:  make(map[string]*proxy.Layer),
		nextUA:  spec.UA,
		nextIA:  spec.IA,
	}
	if spec.Fleet {
		d.Registry = fleet.NewRegistry(fleet.Config{})
		d.Registry.RegisterMetrics(d.Metrics)
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

	// Fleet telemetry collector, brought up FIRST so it is torn down
	// LAST (Close kills in reverse bring-up order): every other node's
	// final snapshot flush still finds it listening.
	if spec.OpsAddr != "" {
		d.Ops = telemetry.NewCollector(telemetry.CollectorConfig{Logger: spec.Logger})
		d.OpsMetrics = metrics.NewRegistry()
		metrics.RegisterBuildInfo(d.OpsMetrics)
		metrics.RegisterRuntimeMetrics(d.OpsMetrics)
		d.Ops.RegisterMetrics(d.OpsMetrics)
		ops := d.Ops
		h := metrics.MuxRoutes(d.OpsMetrics, ops.Health, ops.Routes(), http.NotFoundHandler())
		if err := d.serve(spec.OpsAddr, h); err != nil {
			return nil, err
		}
	}

	// Key material and enclaves (encryption mode only).
	var as *enclave.AttestationService
	var platform *enclave.Platform
	if spec.ProxyEnabled && spec.Encryption {
		if as, err = enclave.NewAttestationService(); err != nil {
			return nil, err
		}
		platform = enclave.NewPlatform(as)
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
	}

	// Privacy-SLO auditor: baselines the key ages now (provisioning
	// time) so MaxKeyAge measures from a known point, then exposes its
	// instruments on the shared registry.
	if spec.Audit != nil {
		acfg := *spec.Audit
		if acfg.TargetS == 0 {
			acfg.TargetS = spec.Shuffle
		}
		d.Auditor = audit.New(acfg)
		if spec.Logger != nil {
			d.Auditor.SetLogger(spec.Logger.With("node", "auditor"))
		}
		if spec.ProxyEnabled && spec.Encryption {
			d.Auditor.SetKeyBaseline("UA")
			d.Auditor.SetKeyBaseline("IA")
		}
		d.Auditor.RegisterMetrics(d.Metrics)
	}

	// Performance-SLO evaluator and, when armed, the triggered-profile
	// harvester it feeds. Objectives are added per layer in serveLayer;
	// the evaluator's metrics register once all layers exist.
	if spec.PerfSLO != nil {
		d.PerfSLO = perfslo.New(*spec.PerfSLO)
		if spec.Logger != nil {
			d.PerfSLO.SetLogger(spec.Logger.With("node", "perfslo"))
		}
		if spec.ProfileDir != "" {
			d.Profiles, err = obsprof.New(obsprof.Config{
				Dir:        spec.ProfileDir,
				CPUSeconds: 1,
				Logger:     spec.Logger,
			})
			if err != nil {
				return nil, err
			}
		}
		eval, harvester := d.PerfSLO, d.Profiles
		eval.OnTransition = func(from, to perfslo.State, reason string) {
			if to == perfslo.StateOK {
				return
			}
			// Attach the newest breach exemplar so the capture's
			// meta.json points at the offending shuffle epoch.
			var epoch uint64
			for _, o := range eval.Report().Objectives {
				if n := len(o.ExemplarEpochs); n > 0 && o.ExemplarEpochs[n-1] > epoch {
					epoch = o.ExemplarEpochs[n-1]
				}
			}
			harvester.Trigger(reason, epoch, from.String(), to.String())
		}
	}

	// LRS backends.
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

	// Proxy layers: IA first (talks to the LRS), then UA. The builder
	// state is kept on the deployment so AddPair provisions later
	// instances exactly like these.
	interClient := transport.HTTPClient(d.Balancer, 30*time.Second)
	iaOpts := proxy.IAOptions{DisableItemPseudonymization: !spec.ItemPseudonyms}
	d.platform, d.attestation = platform, as
	d.iaOpts, d.interClient = iaOpts, interClient
	iaBackends := make([]string, spec.IA)
	for i := 0; i < spec.IA; i++ {
		addr := fmt.Sprintf("ia-%d", i)
		iaBackends[i] = addr
		instOpts := iaOpts
		if spec.Cache {
			// One cache per IA instance: each draws on its own
			// enclave's EPC budget (Bind happens inside NewIAEnclave).
			cache := reccache.New(reccache.Config{TTL: spec.CacheTTL, MaxPages: spec.CachePages})
			instOpts.Cache = cache
			d.RecCaches = append(d.RecCaches, cache)
		}
		layer, err := d.newLayer(proxy.RoleIA, spec, platform, as, instOpts, "http://lrs", interClient)
		if err != nil {
			return nil, err
		}
		d.IALayers = append(d.IALayers, layer)
		if err := d.serveLayer(addr, layer, spec); err != nil {
			return nil, err
		}
	}
	d.Balancer.Register("ia", iaBackends...)

	uaBackends := make([]string, spec.UA)
	for i := 0; i < spec.UA; i++ {
		addr := fmt.Sprintf("ua-%d", i)
		uaBackends[i] = addr
		layer, err := d.newLayer(proxy.RoleUA, spec, platform, as, iaOpts, "http://ia", interClient)
		if err != nil {
			return nil, err
		}
		d.UALayers = append(d.UALayers, layer)
		if err := d.serveLayer(addr, layer, spec); err != nil {
			return nil, err
		}
	}
	d.Balancer.Register("ua", uaBackends...)

	// Fleet mode: seed the registry with the initial membership and hand
	// the balancer over to it. The first endpoint of each service is
	// admitted on registration; one pre-traffic epoch boundary promotes
	// the rest (no epoch is in flight before the first request), so the
	// deployment comes up with its full initial capacity routable.
	if d.Registry != nil {
		for _, addr := range iaBackends {
			d.Registry.Register("ia", addr)
		}
		for _, addr := range uaBackends {
			d.Registry.Register("ua", addr)
		}
		d.Registry.EpochBoundary()
		d.Balancer.UseSource(d.Registry, "ua", "ia", "lrs")
	}

	// Backend ejection starves the surviving shufflers' buffers, so it is
	// a degraded-path SLO signal in its own right.
	if d.Auditor != nil {
		for _, svc := range []string{"ua", "ia", "lrs"} {
			svc := svc
			d.Auditor.AddCheck("backends ejected from "+svc, func() bool {
				return len(d.Balancer.Ejected(svc)) > 0
			})
		}
		if d.Registry != nil {
			// A drained instance that closed with messages still buffered
			// released a sub-S batch: the exact epoch split the drain
			// protocol exists to prevent, and a direct breach of the 1/S
			// linking bound. Scale-down events must never trip this.
			d.Auditor.AddViolationCheck("fleet drain split a shuffle epoch", d.dirtyDrain)
		}
	}

	// Objectives are complete once every layer is served; only now can
	// the evaluator's per-objective series register.
	if d.PerfSLO != nil {
		d.PerfSLO.RegisterMetrics(d.Metrics)
	}

	// The autoscaling loop and the fleet-view emitter come up last, once
	// the initial membership is final: the reconciler's first sample then
	// sees the full fleet, and the emitter's first snapshot carries it.
	if spec.Elastic != nil {
		if err := d.startReconciler(spec); err != nil {
			return nil, err
		}
	}
	if d.Ops != nil && d.Registry != nil {
		if err := d.startFleetTelemetry(); err != nil {
			return nil, err
		}
	}

	d.Entry = "http://ua"
	return d, nil
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
		if spec.Logger != nil {
			d.Engine.SetLogger(spec.Logger.With("node", "lrs"))
		}
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
	handler = metrics.MuxRoutes(d.Metrics, health, d.opRoutes(), handler)
	backends := make([]string, spec.LRSFrontends)
	for i := range backends {
		addr := fmt.Sprintf("lrs-%d", i)
		backends[i] = addr
		if err := d.serve(addr, handler); err != nil {
			return err
		}
		// LRS front ends observe no shuffle epochs; their emitters are
		// purely heartbeat-driven.
		if d.Ops != nil {
			role := "lrs"
			if spec.UseStub {
				role = "stub"
			}
			em, err := d.newEmitter(addr, role, nil, nil, d.telemetryInterval())
			if err != nil {
				return err
			}
			d.mu.Lock()
			d.nodes[addr].emitter = em
			d.mu.Unlock()
		}
	}
	d.Balancer.Register("lrs", backends...)
	if d.Registry != nil {
		for _, addr := range backends {
			d.Registry.Register("lrs", addr)
		}
	}
	return nil
}

// serveLayer registers the layer's instruments (and tracer, when the spec
// asks for one) under its node name and serves it behind the standard
// operational mux, so scraping "http://ua-0/metrics" over the in-memory
// network works exactly like against a real instance. With auditing on,
// the layer also feeds every shuffle-epoch release to the auditor, and
// its breaker / balancer-ejection / enclave-compromise state becomes
// sampled SLO checks.
func (d *Deployment) serveLayer(addr string, layer *proxy.Layer, spec Spec) error {
	layer.RegisterMetrics(d.Metrics, addr)
	if spec.Trace {
		layer.SetTracer(trace.New(addr, d.Traces.Sink(), nil))
	}
	if spec.Logger != nil {
		layer.SetLogger(spec.Logger.With("node", addr))
	}
	if d.Auditor != nil {
		a := d.Auditor
		if br := layer.Breaker(); br != nil {
			a.AddCheck("breaker open on "+addr, func() bool { return br.State() != 0 })
		}
		if e := layer.Enclave(); e != nil {
			a.AddViolationCheck("enclave compromised on "+addr, e.Compromised)
		}
		if c := layer.RecCache(); c != nil {
			a.RegisterCacheCheck(addr, c)
		}
	}
	if d.PerfSLO != nil {
		d.addPerfObjectives(addr, layer, spec)
	}
	// Telemetry emitter: shuffle epochs kick immediate flushes, and the
	// heartbeat interval keeps an idle node pushing so the collector can
	// tell idle from dead. The audit/perf verdict closures read the
	// deployment-wide engines; the snapshot still carries only their
	// state strings.
	var em *telemetry.Emitter
	if d.Ops != nil {
		interval := d.telemetryInterval()
		var auditState, perfState func() string
		if d.Auditor != nil {
			a := d.Auditor
			auditState = func() string { return a.State().String() }
		}
		if d.PerfSLO != nil {
			eval := d.PerfSLO
			perfState = func() string { return eval.State().String() }
		}
		role := "ia"
		if strings.HasPrefix(addr, "ua-") {
			role = "ua"
		}
		var err error
		if em, err = d.newEmitter(addr, role, auditState, perfState, interval); err != nil {
			return err
		}
	}
	if d.Auditor != nil || d.PerfSLO != nil || em != nil || d.Registry != nil {
		a, eval, node, reg := d.Auditor, d.PerfSLO, addr, d.Registry
		// The tracer is already installed, so its epoch — read BEFORE
		// the flush hook advances it — is exactly the epoch number the
		// flushed trace records carry: a perfslo breach exemplar resolves
		// to a real per-epoch trace.
		tr := layer.Tracer()
		var fallbackEpoch atomic.Uint64
		emitter := em
		layer.SetEpochObserver(func(batch int) {
			if a != nil {
				a.ObserveEpoch(node, batch)
			}
			if eval != nil {
				var epoch uint64
				if tr != nil {
					epoch = tr.Epoch()
				} else {
					epoch = fallbackEpoch.Add(1) - 1
				}
				eval.Sample(node, epoch)
			}
			// The emitter goes last so its snapshot sees the epoch's
			// audit and perf samples already applied.
			if emitter != nil {
				emitter.ObserveEpoch(batch)
			}
			// A flush is a shuffle-epoch boundary: the moment no epoch is
			// in flight on this instance, so pending fleet members can be
			// admitted onto a fresh epoch. One atomic load when none are.
			if reg != nil {
				reg.EpochBoundary()
			}
		})
	}
	if err := d.serve(addr, metrics.MuxRoutes(d.Metrics, layer.Health, d.opRoutes(), layer)); err != nil {
		if em != nil {
			em.Close()
		}
		return err
	}
	d.mu.Lock()
	d.nodes[addr].emitter = em
	d.layers[addr] = layer
	d.mu.Unlock()
	return nil
}

// telemetryInterval is the emitters' heartbeat cadence.
func (d *Deployment) telemetryInterval() time.Duration {
	if d.spec.TelemetryInterval > 0 {
		return d.spec.TelemetryInterval
	}
	if d.spec.ShuffleTimeout > 0 {
		return d.spec.ShuffleTimeout
	}
	return 250 * time.Millisecond
}

// newEmitter builds one node's telemetry emitter, scoped to the node's
// own series: the deployment shares one registry, so the filter keeps
// series that either carry this node's `node` label or carry none
// (deployment-global families like build info and audit aggregates).
func (d *Deployment) newEmitter(addr, role string, auditState, perfState func() string, interval time.Duration) (*telemetry.Emitter, error) {
	pusher, err := telemetry.NewClient(d.Net, d.spec.OpsAddr)
	if err != nil {
		return nil, err
	}
	return telemetry.NewEmitter(telemetry.EmitterConfig{
		Node:       addr,
		Role:       role,
		Registry:   d.Metrics,
		Filter:     nodeSeriesFilter(addr),
		AuditState: auditState,
		PerfState:  perfState,
		Pusher:     pusher,
		Interval:   interval,
		Logger:     d.spec.Logger,
	})
}

// nodeSeriesFilter keeps a shared-registry series when it belongs to the
// given node or to no node in particular.
func nodeSeriesFilter(addr string) func(string) bool {
	return func(series string) bool {
		_, labels := metrics.ParseSeries(series)
		n, ok := labels["node"]
		return !ok || n == addr
	}
}

// addPerfObjectives installs one layer instance's latency objectives on
// the evaluator: the end-to-end serve envelope on every layer, the
// shuffle wait where a shuffler runs, the request-path ECALL where an
// enclave runs, and the forward hop on IA instances (the IA→LRS leg the
// paper's cost model singles out). Thresholds derive from the spec's
// own timing knobs and can be overridden per stage via PerfThresholds.
func (d *Deployment) addPerfObjectives(addr string, layer *proxy.Layer, spec Spec) {
	q := spec.PerfQuantile
	if q <= 0 || q >= 1 {
		q = 0.99
	}
	isIA := strings.HasPrefix(addr, "ia-")
	stages := []string{proxy.StageServe}
	if spec.Shuffle > 0 {
		stages = append(stages, proxy.StageShuffleWait)
	}
	if spec.Encryption {
		stages = append(stages, proxy.StageEcallDecrypt)
	}
	if isIA {
		stages = append(stages, proxy.StageForward)
	}
	for _, stage := range stages {
		h := layer.StageHistogram(stage)
		if h == nil {
			continue
		}
		d.PerfSLO.AddObjective(stage, addr, h, q, d.perfThreshold(stage, spec))
	}
}

// perfThreshold derives a stage's default latency threshold from the
// spec. The defaults are intentionally generous — they flag sustained
// regressions, not single slow requests — and every one is overridable.
func (d *Deployment) perfThreshold(stage string, spec Spec) float64 {
	if t, ok := spec.PerfThresholds[stage]; ok {
		return t
	}
	flush := spec.ShuffleTimeout
	if flush <= 0 {
		flush = 250 * time.Millisecond
	}
	switch stage {
	case proxy.StageShuffleWait:
		// A message should never wait much past the flush timer.
		return (2 * flush).Seconds()
	case proxy.StageEcallDecrypt:
		return proxy.EcallDecryptObjective(spec.Shuffle, spec.Workers, spec.EcallCost).Seconds()
	case proxy.StageForward:
		t := 10 * spec.StubDelay
		if t < 250*time.Millisecond {
			t = 250 * time.Millisecond
		}
		return t.Seconds()
	default: // StageServe: shuffle wait plus everything else.
		return (2*flush + 500*time.Millisecond).Seconds()
	}
}

// opRoutes returns the extra operational routes every node serves: the
// auditor's /privacy report and the performance evaluator's /perf
// report, for whichever engines are deployed. Nil when neither is.
func (d *Deployment) opRoutes() map[string]http.Handler {
	if d.Auditor == nil && d.PerfSLO == nil {
		return nil
	}
	routes := make(map[string]http.Handler, 2)
	if d.Auditor != nil {
		routes[audit.PrivacyPath] = d.Auditor.Handler()
	}
	if d.PerfSLO != nil {
		routes[perfslo.PerfPath] = d.PerfSLO.Handler()
	}
	return routes
}

// newLayer builds one provisioned proxy instance. Every instance of a
// layer is provisioned with the same secrets after attestation (§5,
// horizontal scaling).
func (d *Deployment) newLayer(role proxy.Role, spec Spec, platform *enclave.Platform, as *enclave.AttestationService, iaOpts proxy.IAOptions, next string, httpClient *http.Client) (*proxy.Layer, error) {
	cfg := proxy.Config{
		Role:           role,
		Next:           next,
		HTTPClient:     httpClient,
		ShuffleSize:    spec.Shuffle,
		ShuffleTimeout: spec.ShuffleTimeout,
		Workers:        spec.Workers,
		PassThrough:    !spec.Encryption,
		Resilience:     spec.Resilience,
	}
	if role == proxy.RoleIA {
		cfg.LRSConcurrency = spec.LRSConcurrency
	}
	if spec.Hopwire {
		cfg.Hopwire = true
		cfg.HopDialer = d.Balancer
	}
	if spec.Encryption {
		if role == proxy.RoleUA {
			e := proxy.NewUAEnclave(platform)
			if err := d.UAKeys.Provision(as, e, proxy.UAIdentity); err != nil {
				return nil, err
			}
			e.SetTransitionCost(spec.EcallCost)
			cfg.Enclave = e
		} else {
			e := proxy.NewIAEnclave(platform, iaOpts)
			if err := d.IAKeys.Provision(as, e, proxy.IAIdentityFor(iaOpts)); err != nil {
				return nil, err
			}
			e.SetTransitionCost(spec.EcallCost)
			cfg.Enclave = e
			cfg.RecCache = iaOpts.Cache
		}
	}
	return proxy.New(cfg)
}

func (d *Deployment) serve(addr string, h http.Handler) error {
	if d.spec.NodeMiddleware != nil {
		h = d.spec.NodeMiddleware(addr, h)
	}
	l, err := d.Net.Listen(addr)
	if err != nil {
		return err
	}
	n := &runningNode{handler: h, shutdown: d.serveListener(l, h)}
	d.mu.Lock()
	d.nodes[addr] = n
	d.order = append(d.order, addr)
	d.mu.Unlock()
	return nil
}

// serveListener starts one node's server: the dual-protocol mux when the
// spec runs hopwire, plain HTTP otherwise. Kill/Restart go through the
// same helper so a restarted node speaks the same protocols it did
// before the crash.
func (d *Deployment) serveListener(l net.Listener, h http.Handler) func() error {
	if d.spec.Hopwire {
		return hopwire.ServeHTTPAndFrames(l, h)
	}
	return transport.Serve(l, h)
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
	// The process "died": silence its telemetry so the collector sees it
	// go stale, exactly as after a real crash.
	if n.emitter != nil {
		n.emitter.Pause()
	}
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
	n.shutdown = d.serveListener(l, n.handler)
	if n.emitter != nil {
		n.emitter.Resume()
	}
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
	// The reconciler stops first — its stop waits out an in-flight tick,
	// so no AddPair/DrainPair can race the teardown below.
	if d.stopReconcile != nil {
		d.stopReconcile()
	}
	d.Profiles.Wait()
	d.mu.Lock()
	order := append([]string(nil), d.order...)
	uaLayers := append([]*proxy.Layer(nil), d.UALayers...)
	iaLayers := append([]*proxy.Layer(nil), d.IALayers...)
	d.mu.Unlock()
	// Emitters close first — their final snapshot flush needs the ops
	// node still listening (it is killed last, being served first).
	if d.fleetEmitter != nil {
		d.fleetEmitter.Close()
	}
	for _, addr := range order {
		d.mu.Lock()
		n := d.nodes[addr]
		d.mu.Unlock()
		if n != nil && n.emitter != nil {
			n.emitter.Close()
		}
	}
	var firstErr error
	for i := len(order) - 1; i >= 0; i-- {
		if err := d.Kill(order[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, l := range uaLayers {
		l.Close()
	}
	for _, l := range iaLayers {
		l.Close()
	}
	if err := d.Net.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
