// Command pprox-stub runs the nginx-style static LRS stub used by the
// micro-benchmarks (§7.1): it acknowledges feedback and serves a constant
// recommendation list of the same size as a Harness response.
//
//	pprox-stub -listen :8080 -items 20
//	pprox-stub -listen :8080 -items 20 -pseudonymize-with keys.json
//
// With -pseudonymize-with, the served items are pre-pseudonymized under
// the IA layer's permanent key, so a full-crypto PProx deployment in
// front of the stub exercises the complete de-pseudonymization path.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pprox/internal/faults"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/proxy"
	"pprox/internal/stub"
	"pprox/internal/transport"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	items := flag.Int("items", 20, "static recommendation list size")
	delay := flag.Duration("delay", 0, "artificial service time per request")
	keysPath := flag.String("pseudonymize-with", "", "key file; serve items pseudonymized under the IA permanent key")
	node := flag.String("node", "stub", "node name in metrics")
	debugAddr := flag.String("debug-addr", "", "pprof listen address (off when empty)")
	faultSpec := flag.String("inject-fault", "", "fault injection rules, e.g. 'drop:count=5,latency:delay=20ms' (chaos testing)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault-injection stream")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	logger := obslog.New(os.Stderr, "pprox-stub", obslog.ParseLevel(*logLevel))
	if err := run(*listen, *items, *delay, *keysPath, *debugAddr, *faultSpec, *faultSeed, *node, logger); err != nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

// run serves the stub, its metrics labelled with node.
func run(listen string, items int, delay time.Duration, keysPath, debugAddr, faultSpec string, faultSeed uint64, node string, logger *slog.Logger) error {
	var s *stub.Server
	var err error
	if keysPath != "" {
		data, readErr := os.ReadFile(keysPath)
		if readErr != nil {
			return readErr
		}
		_, iaKeys, keyErr := proxy.UnmarshalKeyFile(data)
		if keyErr != nil {
			return keyErr
		}
		names := make([]string, items)
		for i := range names {
			names[i] = fmt.Sprintf("stub-item-%04d", i)
		}
		pseudo, pErr := iaKeys.PseudonymizeItems(names)
		if pErr != nil {
			return pErr
		}
		s, err = stub.NewWithItems(pseudo)
	} else {
		s, err = stub.New(items)
	}
	if err != nil {
		return err
	}
	s.Delay = delay

	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterRuntimeMetrics(reg)
	s.RegisterMetrics(reg, node)
	var app http.Handler = s
	if faultSpec != "" {
		rules, err := faults.ParseSpec(faultSpec)
		if err != nil {
			return fmt.Errorf("-inject-fault: %w", err)
		}
		inj := faults.NewInjector(faultSeed, rules...)
		defer inj.Close()
		app = inj.Middleware(app)
		logger.Info("fault injection armed", "spec", faultSpec)
	}
	handler := metrics.Mux(reg, s.Health, app)

	stopDebug := func() error { return nil }
	if debugAddr != "" {
		stopDebug, err = metrics.ServeDebug(debugAddr)
		if err != nil {
			return err
		}
		defer stopDebug()
		logger.Info("pprof serving", "addr", debugAddr)
	}

	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	// Plain REST: IA instances, direct clients and probes all speak HTTP.
	shutdown := transport.Serve(l, handler)
	logger.Info("serving", "items", items, "listen", l.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	posts, gets := s.Counts()
	logger.Info("shutting down", "posts", posts, "gets", gets)
	if err := stopDebug(); err != nil {
		logger.Warn("debug server shutdown", "error", err.Error())
	}
	return shutdown()
}
