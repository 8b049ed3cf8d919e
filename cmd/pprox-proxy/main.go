// Command pprox-proxy runs one PProx proxy layer instance over TCP:
//
//	pprox-proxy -role ua -listen :8081 -next http://localhost:8082 -keys keys.json -shuffle 10
//	pprox-proxy -role ia -listen :8082 -next http://localhost:8080 -keys keys.json -shuffle 10
//
// The process launches the layer's (simulated) SGX enclave, runs the
// attested provisioning handshake with the key file, and serves the LRS
// REST API and binary hop frames on one listener; toward -next it speaks
// frames, falling back to HTTP against a peer that does not. Horizontal
// scaling = more processes behind a load balancer, each provisioned with
// the same key file (§5). On SIGTERM the instance drains before its
// listener closes (DESIGN.md §4d): its final shuffle epoch leaves whole,
// within -drain-timeout, and the log says whether the drain was clean.
// The flags fill a node.Config, the same configuration the in-process
// cluster builds its instances from.
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pprox/internal/audit"
	"pprox/internal/hopwire"
	"pprox/internal/metrics"
	"pprox/internal/node"
	"pprox/internal/obslog"
	"pprox/internal/obsprof"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/resilience"
)

// options is one process: the instance's node.Config plus what only a
// process has — its listener, key file, pprof server, epoch-record log
// and log level.
type options struct {
	node      node.Config
	listen    string
	keysPath  string
	debugAddr string
	traceLog  string
	logLevel  string
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obslog.New(os.Stderr, "pprox-proxy", obslog.ParseLevel(o.logLevel))
	if err := run(o, logger); err != nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

// parseFlags reads the command line into options.
func parseFlags(args []string) (options, error) {
	var o options
	fs, finish := flagSet(&o)
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, finish()
}

// flagSet declares every flag over o; finish turns the parsed values into
// o.node's composite fields once the set has parsed.
func flagSet(o *options) (fs *flag.FlagSet, finish func() error) {
	c := &o.node
	fs = flag.NewFlagSet("pprox-proxy", flag.ContinueOnError)
	var role string
	var auditOn, perfOn, noResilience bool
	var retries int
	acfg := audit.Config{}
	pol := resilience.DefaultPolicy()
	fs.StringVar(&role, "role", "", "layer role: ua or ia")
	fs.StringVar(&o.listen, "listen", ":8081", "listen address")
	fs.StringVar(&c.Next, "next", "", "next hop base URL (IA balancer for ua, LRS for ia)")
	fs.StringVar(&o.keysPath, "keys", "", "key file from pprox-keygen (omit with -passthrough)")
	fs.IntVar(&c.ShuffleSize, "shuffle", 0, "shuffle buffer size S (0 = off)")
	fs.DurationVar(&c.ShuffleTimeout, "shuffle-timeout", node.DefaultShuffleTimeout, "shuffle flush timer")
	fs.IntVar(&c.LRSConcurrency, "lrs-concurrency", proxy.DefaultLRSConcurrency, "bound on concurrent IA→LRS requests (ia role; negative = unbounded)")
	fs.BoolVar(&c.NoItemPseudonyms, "no-item-pseudonyms", false, "send item identifiers to the LRS in the clear (§6.3)")
	fs.BoolVar(&c.PassThrough, "passthrough", false, "forward without cryptography (baseline m1)")
	fs.StringVar(&c.Name, "node", "", "node name in metrics and logs (default: the role)")
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", 0, "bound on the graceful drain on SIGTERM before stragglers are refused (default: 2×-shuffle-timeout + 5s)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "pprof listen address, e.g. localhost:6060 (off when empty)")
	fs.StringVar(&o.traceLog, "trace-log", "", "append the per-epoch stage records (JSON lines) to this file")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	fs.BoolVar(&auditOn, "audit", false, "run the privacy-SLO auditor and serve its report on /privacy")
	fs.Float64Var(&acfg.Objective, "audit-objective", 0, "fraction of shuffle epochs that must be fully occupied (default 0.99)")
	fs.BoolVar(&perfOn, "perf", false, "run the per-stage latency SLO evaluator and serve its report on /perf")
	fs.Float64Var(&c.PerfQuantile, "perf-quantile", 0, "latency quantile each perf objective constrains (default 0.99)")
	fs.StringVar(&c.ProfileDir, "profile-dir", "", "capture CPU/heap/goroutine profiles into this directory on perf-SLO warn/violation (off when empty)")
	fs.BoolVar(&noResilience, "no-resilience", false, "disable retries, hop deadlines, and the circuit breaker (single attempts)")
	fs.DurationVar(&pol.HopTimeout, "hop-timeout", pol.HopTimeout, "per-attempt deadline toward the next hop")
	fs.IntVar(&retries, "retries", pol.MaxAttempts-1, "retry attempts after a failed forward (0 = one attempt)")
	fs.DurationVar(&pol.BackoffBase, "retry-backoff", pol.BackoffBase, "base of the jittered exponential retry backoff")
	fs.IntVar(&pol.BreakerThreshold, "breaker-threshold", pol.BreakerThreshold, "consecutive forward failures before the breaker opens (0 = no breaker)")
	fs.DurationVar(&pol.BreakerCooldown, "breaker-cooldown", pol.BreakerCooldown, "wait between breaker health probes of the next hop")
	fs.StringVar(&c.Faults, "inject-fault", "", "fault injection rules, e.g. 'error:status=503:count=10,latency:delay=50ms' (chaos testing)")
	fs.Uint64Var(&c.FaultSeed, "fault-seed", 1, "seed of the deterministic fault-injection stream")
	return fs, func() error {
		switch role {
		case "ua":
			c.Role = proxy.RoleUA
		case "ia":
			c.Role = proxy.RoleIA
		default:
			return fmt.Errorf("-role must be ua or ia, got %q", role)
		}
		if auditOn {
			c.Audit = &acfg
		}
		if perfOn {
			c.PerfSLO = &perfslo.Config{}
		}
		if !noResilience {
			pol.MaxAttempts = retries + 1
			c.Resilience = &pol
		}
		return nil
	}
}

// instance is the process's assembled proxy with what it holds open.
type instance struct {
	*node.Proxy
	harvester *obsprof.Harvester
	trace     *traceLog
	traceFile *os.File
	logger    *slog.Logger
}

// assemble provisions the enclave from the key file and builds the
// instance with its own registry and SLO engines.
func assemble(o options, logger *slog.Logger) (*instance, error) {
	cfg, err := o.node.Resolve()
	if err != nil {
		return nil, err
	}
	env := node.Env{
		Dialer:   &net.Dialer{Timeout: 10 * time.Second},
		Registry: metrics.NewRegistry(),
		Logger:   logger,
	}
	metrics.RegisterBuildInfo(env.Registry)
	metrics.RegisterRuntimeMetrics(env.Registry)
	if !cfg.PassThrough {
		if o.keysPath == "" {
			return nil, fmt.Errorf("-keys is required unless -passthrough")
		}
		data, err := os.ReadFile(o.keysPath)
		if err != nil {
			return nil, err
		}
		uaKeys, iaKeys, err := proxy.UnmarshalKeyFile(data)
		if err != nil {
			return nil, err
		}
		if env.Provision, err = node.NewProvisioning(uaKeys, iaKeys); err != nil {
			return nil, err
		}
	}
	named := logger.With("node", cfg.Name)
	env.Auditor = node.NewAuditor(cfg, env.Registry, named)
	in := &instance{logger: named}
	// Profiles come from the -debug-addr pprof server, in process without one.
	source := o.debugAddr
	if strings.HasPrefix(source, ":") {
		source = "localhost" + source
	}
	if source != "" {
		source = "http://" + source
	}
	if env.PerfSLO, in.harvester, err = node.NewEvaluator(cfg, source, named); err != nil {
		return nil, err
	}
	if o.traceLog != "" {
		if in.traceFile, err = os.OpenFile(o.traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, err
		}
		in.trace = newTraceLog(in.traceFile)
		env.TraceSink = in.trace.record
	}
	if in.Proxy, err = node.NewProxy(cfg, env); err != nil {
		in.close()
		return nil, err
	}
	if env.PerfSLO != nil {
		// After NewProxy's AddObjective calls, so the per-objective
		// families exist.
		env.PerfSLO.RegisterMetrics(env.Registry)
	}
	return in, nil
}

// close releases the instance once its listener has stopped.
func (in *instance) close() {
	if in.Proxy != nil {
		in.Proxy.Close()
		// After Close, so a message the drain left buffered shows as a
		// split epoch.
		if rep := in.Layer.DrainReport(); rep.Draining {
			in.logger.Info("drain complete", "clean", rep.Clean, "sheds", rep.Sheds)
		}
	}
	in.harvester.Wait()
	if in.trace != nil {
		// After the layer's close, so its batch-0 record is written too.
		if dropped := in.trace.close(); dropped > 0 {
			in.logger.Warn("trace log fell behind; epoch records dropped", "dropped", dropped)
		}
		in.traceFile.Close()
	}
}

func run(o options, logger *slog.Logger) error {
	in, err := assemble(o, logger)
	if err != nil {
		return err
	}
	defer in.close()
	cfg, layer := in.Config, in.Layer
	if cfg.Faults != "" {
		logger.Info("fault injection armed", "spec", cfg.Faults)
	}
	if in.harvester != nil {
		logger.Info("profile capture armed", "dir", cfg.ProfileDir)
	}

	stopDebug := func() error { return nil }
	if o.debugAddr != "" {
		if stopDebug, err = metrics.ServeDebug(o.debugAddr); err != nil {
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
	shutdown := hopwire.ServeHTTPAndFrames(l, in.Handler)
	logger.Info("layer serving",
		"node", cfg.Name, "listen", l.Addr().String(), "next", cfg.Next,
		"shuffle", cfg.ShuffleSize, "audit", cfg.Audit != nil)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// The layer drains before the listeners close: in-flight work
	// finishes and the final shuffle epoch leaves whole. What arrives
	// after that is refused, not buffered for Close to flush early.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	if err := node.Drain(ctx, layer); err != nil {
		logger.Warn("graceful drain timed out; stragglers refused", "error", err.Error())
	}
	cancel()
	layer.RefuseNew()
	served, failed := layer.Stats()
	retried, failFast := layer.RetryStats()
	logger.Info("shutting down",
		"served", served, "failed", failed, "retries", retried, "fail_fast", failFast)
	if err := stopDebug(); err != nil {
		logger.Warn("debug server shutdown", "error", err.Error())
	}
	return shutdown()
}
