// Command pprox-sidecar is the user-side library as a transparent sidecar:
// an unmodified application keeps speaking the plain LRS REST API to
// localhost, and the sidecar encrypts, forwards through the PProx proxy
// service, and decrypts — the deployment-free integration the paper's
// static-JavaScript library provides for web front ends (§2.1, §3).
//
//	pprox-sidecar -listen 127.0.0.1:8079 -target http://ua-balancer:8081 -bundle bundle.json
//
// Point the application's recommendation endpoint at the sidecar; nothing
// else changes.
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
	"syscall"
	"time"

	"pprox/internal/client"
	"pprox/internal/message"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8079", "local address the application talks to")
	target := flag.String("target", "", "base URL of the PProx UA layer (or its balancer)")
	bundlePath := flag.String("bundle", "", "public bundle from pprox-keygen")
	debugAddr := flag.String("debug-addr", "", "pprof listen address, e.g. localhost:6062 (off when empty)")
	getRetries := flag.Int("get-retries", 2, "extra attempts for failed gets, each freshly encrypted; posts never retry client-side (0 = off)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	logger := obslog.New(os.Stderr, "pprox-sidecar", obslog.ParseLevel(*logLevel))
	if err := run(*listen, *target, *bundlePath, *debugAddr, *getRetries, logger); err != nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

func run(listen, target, bundlePath, debugAddr string, getRetries int, logger *slog.Logger) error {
	if target == "" || bundlePath == "" {
		return fmt.Errorf("-target and -bundle are required")
	}
	data, err := os.ReadFile(bundlePath)
	if err != nil {
		return err
	}
	bundle, err := proxy.UnmarshalBundleFile(data)
	if err != nil {
		return err
	}

	httpClient := &http.Client{Timeout: 30 * time.Second}
	cl := client.New(bundle, httpClient, target)
	if getRetries > 0 {
		// Gets retry with a fresh end-to-end encryption per attempt;
		// posts make one attempt (retried idempotently on the IA→LRS
		// hop instead — see client.WithGetRetries).
		cl = cl.WithGetRetries(getRetries)
	}

	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterRuntimeMetrics(reg)
	intercepted := reg.HistogramVec("pprox_sidecar_request_seconds",
		"End-to-end latency of requests proxied through the sidecar.",
		nil, "path")
	label := func(req *http.Request) []string {
		p := "other"
		if req.URL.Path == message.EventsPath || req.URL.Path == message.QueriesPath {
			p = req.URL.Path
		}
		return []string{p}
	}
	health := func() metrics.Health {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		checks := map[string]string{"target": "ok"}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+message.HealthPath, nil)
		if err != nil {
			checks["target"] = "bad target URL"
			return metrics.Health{OK: false, Checks: checks}
		}
		resp, err := httpClient.Do(req)
		if err != nil {
			checks["target"] = "unreachable"
			return metrics.Health{OK: false, Checks: checks}
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			checks["target"] = "status " + resp.Status
			return metrics.Health{OK: false, Checks: checks}
		}
		return metrics.Health{OK: true, Checks: checks}
	}
	handler := metrics.Mux(reg, health,
		metrics.InstrumentHandler(intercepted, label, client.NewInterceptor(cl)))

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
	shutdown := transport.Serve(l, handler)
	logger.Info("intercepting", "listen", l.Addr().String(), "target", target)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	if err := stopDebug(); err != nil {
		logger.Warn("debug server shutdown", "error", err.Error())
	}
	return shutdown()
}
