// Command pprox-proxy runs one PProx proxy layer instance over TCP:
//
//	pprox-proxy -role ua -listen :8081 -next http://localhost:8082 -keys keys.json -shuffle 10
//	pprox-proxy -role ia -listen :8082 -next http://localhost:8080 -keys keys.json -shuffle 10
//
// The process launches the layer's (simulated) SGX enclave, runs the
// attested provisioning handshake with the key file, and serves the LRS
// REST API. Horizontal scaling = more processes behind a load balancer,
// each provisioned with the same key file (§5).
//
// Fault handling toward the next hop is on by default (-no-resilience
// turns it off): every forward gets a per-attempt deadline (-hop-timeout),
// failed forwards retry with jittered exponential backoff (-retries,
// -retry-backoff), and a circuit breaker (-breaker-threshold,
// -breaker-cooldown) fails fast while probing the hop's /healthz. Retries
// on a UA instance are privacy-aware: with a link key in the key file each
// retried frame re-randomizes its hop envelopes first.
//
// -inject-fault arms deterministic fault injection on this instance's
// application endpoints, for chaos experiments:
//
//	pprox-proxy ... -inject-fault 'error:status=503:count=10,latency:delay=50ms'
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pprox/internal/audit"
	"pprox/internal/enclave"
	"pprox/internal/faults"
	"pprox/internal/fleet"
	"pprox/internal/hopwire"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/obsprof"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/reccache"
	"pprox/internal/resilience"
	"pprox/internal/telemetry"
	"pprox/internal/trace"
	"pprox/internal/transport"
)

// options collects every flag of the binary; run consumes it whole instead
// of a dozen positional parameters.
type options struct {
	role           string
	listen         string
	next           string
	keysPath       string
	shuffle        int
	shuffleTimeout time.Duration
	workers        int
	hopwireOn      bool
	lrsConcurrency int
	noItemPseudo   bool
	passthrough    bool
	opsAddr        string
	node           string
	telemetryEvery time.Duration
	fleetURL       string
	fleetService   string
	advertise      string
	drainTimeout   time.Duration
	debugAddr      string
	traceLog       string
	logLevel       string
	auditSLO       bool
	auditObjective float64
	perfSLO        bool
	perfQuantile   float64
	profileDir     string

	cache         bool
	cacheTTL      time.Duration
	cacheEPCPages int

	noResilience     bool
	hopTimeout       time.Duration
	retries          int
	retryBackoff     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	faultSpec string
	faultSeed uint64
}

func main() {
	var o options
	flag.StringVar(&o.role, "role", "", "layer role: ua or ia")
	flag.StringVar(&o.listen, "listen", ":8081", "listen address")
	flag.StringVar(&o.next, "next", "", "next hop base URL (IA balancer for ua, LRS for ia)")
	flag.StringVar(&o.keysPath, "keys", "", "key file from pprox-keygen (omit with -passthrough)")
	flag.IntVar(&o.shuffle, "shuffle", 0, "shuffle buffer size S (0 = off)")
	flag.DurationVar(&o.shuffleTimeout, "shuffle-timeout", 500*time.Millisecond, "shuffle flush timer")
	flag.IntVar(&o.workers, "workers", 2, "data-processing pool size")
	flag.BoolVar(&o.hopwireOn, "hopwire", false, "speak the persistent binary frame protocol toward -next and serve frames alongside HTTP on -listen (DESIGN.md §4h; falls back to HTTP against peers that do not answer in frames)")
	flag.IntVar(&o.lrsConcurrency, "lrs-concurrency", proxy.DefaultLRSConcurrency, "bound on concurrent IA→LRS requests (ia role; negative = unbounded)")
	flag.BoolVar(&o.noItemPseudo, "no-item-pseudonyms", false, "send item identifiers to the LRS in the clear (§6.3)")
	flag.BoolVar(&o.passthrough, "passthrough", false, "forward without cryptography (baseline m1)")
	flag.StringVar(&o.opsAddr, "ops-addr", "", "pprox-ops collector address, e.g. localhost:9090: stream one telemetry snapshot per shuffle epoch (off when empty)")
	flag.StringVar(&o.node, "node", "", "node name reported to -ops-addr (default: the role)")
	flag.DurationVar(&o.telemetryEvery, "telemetry-interval", 0, "telemetry heartbeat when no shuffle epochs fire (default: -shuffle-timeout, or 250ms)")
	flag.StringVar(&o.fleetURL, "fleet", "", "fleet registry base URL, e.g. http://ops:9090: register on boot, heartbeat, and drain at a shuffle-epoch boundary on SIGTERM (DESIGN.md §4j; off when empty)")
	flag.StringVar(&o.fleetService, "fleet-service", "", "service name announced to the fleet registry (default: the role)")
	flag.StringVar(&o.advertise, "advertise", "", "address peers should dial for this instance (default: the bound listen address)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 0, "bound on the graceful drain before stragglers are refused (default: 2×-shuffle-timeout + 5s)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "pprof listen address, e.g. localhost:6060 (off when empty)")
	flag.StringVar(&o.traceLog, "trace-log", "", "append privacy-safe trace records (JSON lines) to this file")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	flag.BoolVar(&o.auditSLO, "audit", false, "run the privacy-SLO auditor and serve its report on /privacy")
	flag.Float64Var(&o.auditObjective, "audit-objective", 0.99, "fraction of shuffle epochs that must be fully occupied")
	flag.BoolVar(&o.perfSLO, "perf", false, "run the per-stage latency SLO evaluator and serve its report on /perf")
	flag.Float64Var(&o.perfQuantile, "perf-quantile", 0.99, "latency quantile each perf objective constrains")
	flag.StringVar(&o.profileDir, "profile-dir", "", "capture CPU/heap/goroutine profiles into this directory on perf-SLO warn/violation (off when empty)")
	flag.BoolVar(&o.cache, "cache", false, "enable the in-enclave recommendation cache (IA role only)")
	flag.DurationVar(&o.cacheTTL, "cache-ttl", reccache.DefaultTTL, "per-entry TTL of the recommendation cache")
	flag.IntVar(&o.cacheEPCPages, "cache-epc-pages", reccache.DefaultMaxPages, "EPC page budget of the recommendation cache")
	flag.BoolVar(&o.noResilience, "no-resilience", false, "disable retries, hop deadlines, and the circuit breaker (single attempts)")
	flag.DurationVar(&o.hopTimeout, "hop-timeout", 10*time.Second, "per-attempt deadline toward the next hop")
	flag.IntVar(&o.retries, "retries", 2, "retry attempts after a failed forward (0 = one attempt)")
	flag.DurationVar(&o.retryBackoff, "retry-backoff", 50*time.Millisecond, "base of the jittered exponential retry backoff")
	flag.IntVar(&o.breakerThreshold, "breaker-threshold", 5, "consecutive forward failures before the breaker opens (0 = no breaker)")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", 2*time.Second, "wait between breaker health probes of the next hop")
	flag.StringVar(&o.faultSpec, "inject-fault", "", "fault injection rules, e.g. 'error:status=503:count=10,latency:delay=50ms' (chaos testing)")
	flag.Uint64Var(&o.faultSeed, "fault-seed", 1, "seed of the deterministic fault-injection stream")
	flag.Parse()

	logger := obslog.New(os.Stderr, "pprox-proxy", obslog.ParseLevel(o.logLevel))
	if err := run(o, logger); err != nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func run(o options, logger *slog.Logger) error {
	var r proxy.Role
	switch o.role {
	case "ua":
		r = proxy.RoleUA
	case "ia":
		r = proxy.RoleIA
	default:
		return fmt.Errorf("role must be ua or ia, got %q", o.role)
	}
	if o.next == "" {
		return fmt.Errorf("-next is required")
	}

	cfg := proxy.Config{
		Role:           r,
		Next:           o.next,
		HTTPClient:     transport.DefaultHTTPClient(30 * time.Second),
		ShuffleSize:    o.shuffle,
		ShuffleTimeout: o.shuffleTimeout,
		Workers:        o.workers,
		PassThrough:    o.passthrough,
	}
	if r == proxy.RoleIA {
		cfg.LRSConcurrency = o.lrsConcurrency
	}
	if o.hopwireOn {
		cfg.Hopwire = true
		cfg.HopDialer = &net.Dialer{Timeout: 10 * time.Second}
	}
	if !o.noResilience {
		cfg.Resilience = &resilience.Policy{
			HopTimeout:       o.hopTimeout,
			MaxAttempts:      o.retries + 1,
			BackoffBase:      o.retryBackoff,
			BreakerThreshold: o.breakerThreshold,
			BreakerCooldown:  o.breakerCooldown,
		}
	}

	if o.cache && (r != proxy.RoleIA || o.passthrough) {
		return fmt.Errorf("-cache requires -role ia without -passthrough")
	}

	if !o.passthrough {
		if o.keysPath == "" {
			return fmt.Errorf("-keys is required unless -passthrough")
		}
		data, err := os.ReadFile(o.keysPath)
		if err != nil {
			return err
		}
		uaKeys, iaKeys, err := proxy.UnmarshalKeyFile(data)
		if err != nil {
			return err
		}
		// Local platform + attestation trust anchor: in a production
		// deployment the quote verification happens remotely at the
		// RaaS client; see DESIGN.md §1 for the SGX substitution.
		as, err := enclave.NewAttestationService()
		if err != nil {
			return err
		}
		platform := enclave.NewPlatform(as)
		if r == proxy.RoleUA {
			e := proxy.NewUAEnclave(platform)
			if err := uaKeys.Provision(as, e, proxy.UAIdentity); err != nil {
				return err
			}
			cfg.Enclave = e
		} else {
			opts := proxy.IAOptions{DisableItemPseudonymization: o.noItemPseudo}
			if o.cache {
				c := reccache.New(reccache.Config{TTL: o.cacheTTL, MaxPages: o.cacheEPCPages})
				opts.Cache = c
				cfg.RecCache = c
			}
			e := proxy.NewIAEnclave(platform, opts)
			if err := iaKeys.Provision(as, e, proxy.IAIdentityFor(opts)); err != nil {
				return err
			}
			cfg.Enclave = e
		}
	}

	layer, err := proxy.New(cfg)
	if err != nil {
		return err
	}
	defer layer.Close()
	layer.SetLogger(logger.With("node", o.role))

	var app http.Handler = layer
	if o.faultSpec != "" {
		rules, err := faults.ParseSpec(o.faultSpec)
		if err != nil {
			return fmt.Errorf("-inject-fault: %w", err)
		}
		inj := faults.NewInjector(o.faultSeed, rules...)
		defer inj.Close()
		// Only application traffic is injected; /metrics and /healthz
		// stay honest so breakers and operators see the real state.
		app = inj.Middleware(app)
		logger.Info("fault injection armed", "spec", o.faultSpec)
	}

	reg := metrics.NewRegistry()
	layer.RegisterMetrics(reg, o.role)
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterRuntimeMetrics(reg)
	routes := make(map[string]http.Handler)
	var auditor *audit.Auditor
	if o.auditSLO {
		auditor = audit.New(audit.Config{TargetS: o.shuffle, Objective: o.auditObjective})
		auditor.SetLogger(logger.With("node", o.role))
		auditor.SetKeyBaseline(strings.ToUpper(o.role))
		if br := layer.Breaker(); br != nil {
			auditor.AddCheck("next-hop breaker open", func() bool { return br.State() != 0 })
		}
		if e := layer.Enclave(); e != nil {
			auditor.AddViolationCheck("enclave compromised", e.Compromised)
		}
		if c := layer.RecCache(); c != nil {
			auditor.RegisterCacheCheck(o.role, c)
		}
		auditor.RegisterMetrics(reg)
		routes[audit.PrivacyPath] = auditor.Handler()
	}
	var eval *perfslo.Evaluator
	if o.perfSLO {
		eval = perfslo.New(perfslo.Config{})
		eval.SetLogger(logger.With("node", o.role))
		addPerfObjectives(eval, layer, o)
		if o.profileDir != "" {
			source := ""
			if o.debugAddr != "" {
				source = "http://" + o.debugAddr
				if strings.HasPrefix(o.debugAddr, ":") {
					source = "http://localhost" + o.debugAddr
				}
			}
			harvester, err := obsprof.New(obsprof.Config{
				Dir:    o.profileDir,
				Source: source,
				Logger: logger.With("node", o.role),
			})
			if err != nil {
				return err
			}
			defer harvester.Wait()
			ev := eval
			eval.OnTransition = func(from, to perfslo.State, reason string) {
				if to == perfslo.StateOK {
					return
				}
				harvester.Trigger(reason, newestExemplar(ev), from.String(), to.String())
			}
			logger.Info("profile capture armed", "dir", o.profileDir)
		}
		// After every AddObjective, so the per-objective families exist.
		eval.RegisterMetrics(reg)
		routes[perfslo.PerfPath] = eval.Handler()
	}
	// Telemetry emitter toward pprox-ops: one snapshot per shuffle epoch,
	// heartbeat-driven when idle. Created before the epoch observer so
	// epochs reach it from the first flush.
	var emitter *telemetry.Emitter
	if o.opsAddr != "" {
		pusher, err := telemetry.NewClient(&net.Dialer{Timeout: 10 * time.Second}, o.opsAddr)
		if err != nil {
			return err
		}
		node := o.node
		if node == "" {
			node = o.role
		}
		interval := o.telemetryEvery
		if interval <= 0 {
			interval = o.shuffleTimeout
			if interval <= 0 {
				interval = 250 * time.Millisecond
			}
		}
		ecfg := telemetry.EmitterConfig{
			Node:     node,
			Role:     o.role,
			Registry: reg,
			Pusher:   pusher,
			Interval: interval,
			Logger:   logger.With("node", node),
		}
		if auditor != nil {
			a := auditor
			ecfg.AuditState = func() string { return a.State().String() }
		}
		if eval != nil {
			ev := eval
			ecfg.PerfState = func() string { return ev.State().String() }
		}
		if emitter, err = telemetry.NewEmitter(ecfg); err != nil {
			return err
		}
		logger.Info("telemetry streaming", "ops", o.opsAddr, "node", node, "heartbeat", interval.String())
	}
	if auditor != nil || eval != nil || emitter != nil {
		var fallbackEpoch atomic.Uint64
		layer.SetEpochObserver(func(batch int) {
			if auditor != nil {
				auditor.ObserveEpoch(o.role, batch)
			}
			if eval != nil {
				var epoch uint64
				if tr := layer.Tracer(); tr != nil {
					epoch = tr.Epoch()
				} else {
					epoch = fallbackEpoch.Add(1) - 1
				}
				eval.Sample(o.role, epoch)
			}
			if emitter != nil {
				emitter.ObserveEpoch(batch)
			}
		})
	}
	if len(routes) == 0 {
		routes = nil
	}
	handler := metrics.MuxRoutes(reg, layer.Health, routes, app)

	if o.traceLog != "" {
		f, err := os.OpenFile(o.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		layer.SetTracer(trace.New(o.role, trace.WriterSink(f), nil))
		if layer.Shuffler() == nil {
			// An unshuffled IA has no epochs to flush the trace buffer,
			// so run them on the flush timer instead. Batching still
			// hides per-request timing, but only shuffling gives the 1/S
			// bound.
			stopEpochs := make(chan struct{})
			defer close(stopEpochs)
			go func() {
				ticker := time.NewTicker(o.shuffleTimeout)
				defer ticker.Stop()
				for {
					select {
					case <-ticker.C:
						layer.Tracer().AdvanceEpoch()
					case <-stopEpochs:
						return
					}
				}
			}()
		}
	}

	stopDebug := func() error { return nil }
	if o.debugAddr != "" {
		stopDebug, err = metrics.ServeDebug(o.debugAddr)
		if err != nil {
			return err
		}
		// Idempotent: the SIGTERM path below drains it first; this only
		// covers error returns between here and there.
		defer stopDebug()
		logger.Info("pprof serving", "addr", o.debugAddr)
	}

	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}

	serve, mode := transport.Serve, "net/http"
	if o.hopwireOn {
		serve, mode = hopwire.ServeHTTPAndFrames, "hopwire+net/http"
	}
	shutdown := serve(l, handler)
	logger.Info("layer serving",
		"role", o.role, "listen", l.Addr().String(), "next", o.next,
		"shuffle", o.shuffle, "workers", o.workers, "mode", mode, "audit", o.auditSLO)

	// Fleet membership: register with the route registry once the
	// listener is up, heartbeat until shutdown, and leave through the
	// §4j drain protocol on SIGTERM.
	var agent *fleet.Agent
	if o.fleetURL != "" {
		service := o.fleetService
		if service == "" {
			service = o.role
		}
		advertise := o.advertise
		if advertise == "" {
			advertise = l.Addr().String()
		}
		base := o.fleetURL
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		lg := logger.With("node", o.role)
		agent, err = fleet.NewAgent(fleet.AgentConfig{
			BaseURL: strings.TrimRight(base, "/"),
			Service: service,
			Addr:    advertise,
			Logger:  func(format string, args ...any) { lg.Warn(fmt.Sprintf(format, args...)) },
		})
		if err != nil {
			return err
		}
		regCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = agent.Start(regCtx)
		cancel()
		if err != nil {
			return fmt.Errorf("fleet registration: %w", err)
		}
		logger.Info("fleet registered", "registry", base, "service", service, "advertise", advertise)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	served, failed := layer.Stats()
	retried, failFast := layer.RetryStats()
	logger.Info("shutting down",
		"served", served, "failed", failed, "retries", retried, "fail_fast", failFast)
	// Drain order: the fleet drain runs first (routing stops, in-flight
	// work finishes, the final shuffle epoch leaves whole, we deregister),
	// then the final telemetry snapshot flushes while this process's
	// listener is still up (the collector is a separate process, but a
	// shared shutdown sweep should see the last epoch's counters either
	// way), then the listeners close.
	if agent != nil {
		drainFleet(agent, layer, o, logger)
	}
	if emitter != nil {
		if err := emitter.Close(); err != nil {
			logger.Warn("final telemetry flush failed", "error", err.Error())
		}
	}
	if err := stopDebug(); err != nil {
		logger.Warn("debug server shutdown", "error", err.Error())
	}
	return shutdown()
}

// drainFleet runs the §4j scale-down protocol for a SIGTERM'd instance:
// the registry stops routing to us first, then the layer soft-drains —
// in-flight requests finish and the final shuffle epoch leaves WHOLE via
// the shuffler's own flush, never a forced sub-S release — and only then
// do we deregister. A drain that outlives the timeout hard-refuses
// stragglers so shutdown stays bounded.
func drainFleet(agent *fleet.Agent, layer *proxy.Layer, o options, logger *slog.Logger) {
	timeout := o.drainTimeout
	if timeout <= 0 {
		timeout = 2*o.shuffleTimeout + 5*time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := agent.Drain(ctx); err != nil {
		logger.Warn("fleet drain announcement failed", "error", err.Error())
	}
	layer.BeginDrain()
	if err := layer.AwaitDrained(ctx); err != nil {
		logger.Warn("graceful drain timed out; refusing stragglers", "error", err.Error())
		layer.RefuseNew()
		grace, cancelGrace := context.WithTimeout(context.Background(), time.Second)
		_ = layer.AwaitDrained(grace)
		cancelGrace()
	}
	agent.Stop()
	dctx, cancelDereg := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelDereg()
	if err := agent.Deregister(dctx); err != nil {
		logger.Warn("fleet deregister failed; staleness pruning will collect the entry", "error", err.Error())
	}
	rep := layer.DrainReport()
	logger.Info("fleet drain complete", "clean", rep.Clean, "sheds", rep.Sheds)
}

// addPerfObjectives installs the per-stage latency objectives this
// instance can actually observe, with the same defaults the in-process
// cluster uses: generous multiples of the configured shuffle flush and
// hop costs, meant to flag regressions rather than tune capacity.
func addPerfObjectives(eval *perfslo.Evaluator, layer *proxy.Layer, o options) {
	flush := o.shuffleTimeout
	if flush <= 0 {
		flush = 250 * time.Millisecond
	}
	thresholds := map[string]time.Duration{
		proxy.StageServe:        2*flush + 500*time.Millisecond,
		proxy.StageShuffleWait:  2 * flush,
		proxy.StageEcallDecrypt: proxy.EcallDecryptObjective(o.shuffle, o.workers, 0),
		proxy.StageForward:      250 * time.Millisecond,
	}
	stages := []string{proxy.StageServe}
	if o.shuffle > 0 {
		stages = append(stages, proxy.StageShuffleWait)
	}
	if !o.passthrough {
		stages = append(stages, proxy.StageEcallDecrypt)
	}
	if o.role == "ia" {
		stages = append(stages, proxy.StageForward)
	}
	for _, stage := range stages {
		if h := layer.StageHistogram(stage); h != nil {
			eval.AddObjective(stage, o.role, h, o.perfQuantile, thresholds[stage].Seconds())
		}
	}
}

// newestExemplar returns the most recent breach epoch across the
// evaluator's objectives, so a triggered profile capture is labeled with
// the shuffle epoch that tripped it.
func newestExemplar(eval *perfslo.Evaluator) uint64 {
	var newest uint64
	for _, obj := range eval.Report().Objectives {
		if n := len(obj.ExemplarEpochs); n > 0 && obj.ExemplarEpochs[n-1] >= newest {
			newest = obj.ExemplarEpochs[n-1]
		}
	}
	return newest
}
