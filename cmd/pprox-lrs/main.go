// Command pprox-lrs runs the legacy recommendation system over TCP: the
// Universal-Recommender-style engine (CCO collaborative filtering over a
// document store and an inverted index) behind the REST API that PProx
// proxies.
//
//	pprox-lrs -listen :8080 -train-every 30s
//
// Training runs as a periodic batch job, as Harness runs Apache Spark
// (§7); POST /train forces a run.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pprox/internal/faults"
	"pprox/internal/lrs/engine"
	"pprox/internal/metrics"
	"pprox/internal/obslog"
	"pprox/internal/transport"
)

func main() {
	listen := flag.String("listen", ":8080", "listen address")
	trainEvery := flag.Duration("train-every", 30*time.Second, "periodic training interval (0 = manual via POST /train)")
	snapshot := flag.String("snapshot", "", "event-log snapshot file: loaded at start-up if present, written at shutdown")
	shards := flag.Int("shards", 0, "event-log shards on a consistent-hash ring keyed by the user pseudonym (0 = single shard)")
	walDir := flag.String("wal-dir", "", "WAL-back every event-log shard under this directory: accepted posts survive a process crash (off when empty; see -wal-sync for power-loss durability)")
	walSync := flag.Bool("wal-sync", false, "fsync every WAL append before acknowledging the post: durability extends to OS crashes and power loss (needs -wal-dir)")
	incremental := flag.Bool("incremental", false, "fold each accepted event into the CCO model online; periodic training becomes compaction")
	node := flag.String("node", "lrs", "node name in metrics")
	debugAddr := flag.String("debug-addr", "", "pprof listen address, e.g. localhost:6061 (off when empty)")
	faultSpec := flag.String("inject-fault", "", "fault injection rules, e.g. 'error:status=503:count=10' (chaos testing)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed of the deterministic fault-injection stream")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	flag.Parse()

	logger := obslog.New(os.Stderr, "pprox-lrs", obslog.ParseLevel(*logLevel))
	engCfg := engine.DefaultConfig()
	engCfg.Shards = *shards
	engCfg.WALDir = *walDir
	engCfg.WALSync = *walSync
	engCfg.Incremental = *incremental
	if err := run(*listen, *trainEvery, *snapshot, *debugAddr, *faultSpec, *faultSeed, engCfg, *node, logger); err != nil {
		logger.Error("fatal", "error", err.Error())
		os.Exit(1)
	}
}

// run serves the engine, its metrics labelled with node.
func run(listen string, trainEvery time.Duration, snapshot, debugAddr, faultSpec string, faultSeed uint64, engCfg engine.Config, node string, logger *slog.Logger) error {
	eng, err := loadOrNewEngine(engCfg, snapshot, logger)
	if err != nil {
		return err
	}
	defer eng.Close()
	eng.SetLogger(logger)
	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg)
	metrics.RegisterRuntimeMetrics(reg)
	instrument := eng.RegisterMetrics(reg, node)
	app := instrument(engine.NewHandler(eng))
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
	handler := metrics.Mux(reg, eng.Health, app)

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
	logger.Info("serving", "listen", l.Addr().String(), "train_every", trainEvery.String())

	stopTrainer := make(chan struct{})
	trainerDone := make(chan struct{})
	go func() {
		defer close(trainerDone)
		if trainEvery <= 0 {
			return
		}
		ticker := time.NewTicker(trainEvery)
		defer ticker.Stop()
		// On a WAL-backed log the periodic job compacts as it trains:
		// the fresh model's event baseline becomes the shard snapshots
		// and the WALs truncate, bounding restart replay time.
		train := eng.TrainNow
		verb := "model trained"
		if eng.Durable() {
			train = eng.Compact
			verb = "model trained, log compacted"
		}
		for {
			select {
			case <-ticker.C:
				if err := train(); err != nil {
					logger.Warn("training failed", "error", err.Error())
					continue
				}
				logger.Info(verb, "model", eng.ModelInfo(), "events", eng.EventCount())
			case <-stopTrainer:
				return
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stopTrainer)
	<-trainerDone
	if snapshot != "" {
		if err := eng.SaveSnapshotFile(snapshot); err != nil {
			logger.Warn("snapshot save failed", "error", err.Error())
		} else {
			logger.Info("snapshot written", "path", snapshot)
		}
	}
	posts, queries, trains := eng.Stats()
	logger.Info("shutting down", "posts", posts, "queries", queries, "trains", trains)
	if err := stopDebug(); err != nil {
		logger.Warn("debug server shutdown", "error", err.Error())
	}
	return shutdown()
}

// loadOrNewEngine opens the engine (replaying any per-shard WALs under
// -wal-dir) and, when a snapshot file exists and the WALs brought nothing
// back, restores it and retrains — mirroring a Harness restart against
// its persisted MongoDB. The WALs win: a clean shutdown writes the
// snapshot from the same events they hold.
func loadOrNewEngine(cfg engine.Config, snapshot string, logger *slog.Logger) (*engine.Engine, error) {
	eng, err := engine.Open(cfg)
	if err != nil || snapshot == "" || eng.EventCount() > 0 {
		return eng, err
	}
	f, err := os.Open(snapshot)
	if os.IsNotExist(err) {
		return eng, nil
	}
	eng.Close()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	eng, err = engine.NewFromSnapshot(cfg, f)
	if err != nil {
		return nil, fmt.Errorf("load snapshot %s: %w", snapshot, err)
	}
	if err := eng.TrainNow(); err != nil {
		eng.Close()
		return nil, err
	}
	logger.Info("snapshot restored", "events", eng.EventCount(), "path", snapshot)
	return eng, nil
}
