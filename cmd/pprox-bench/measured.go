package main

import (
	"context"
	"fmt"
	"time"

	"pprox/internal/cluster"
	"pprox/internal/workload"
)

// microByName finds a Table 2 row.
func microByName(name string) (cluster.MicroConfig, bool) {
	for _, c := range cluster.MicroConfigs() {
		if c.Name == name {
			return c, true
		}
	}
	return cluster.MicroConfig{}, false
}

// runMeasuredMacro is the real-plane counterpart of Figures 9–10: it
// deploys the baseline (b-shape, plain client straight to the engine) and
// the full system (f-shape, encrypted through both layers) with the REAL
// Universal-Recommender engine trained on a scaled MovieLens workload,
// and measures get latencies on this host. The paper's observation —
// full-system latency ≈ proxy latency + LRS latency — must hold here too.
func runMeasuredMacro() error {
	fmt.Println("\n=== measured-macro — real engine, baseline vs full system (this host) ===")
	dataset := workload.Generate(workload.ScaledMovieLensParams(0.002))
	users := dataset.DistinctUsers()

	for _, setup := range []struct {
		name string
		spec cluster.Spec
	}{
		{"b1-like (plain → engine)", cluster.Spec{LRSFrontends: 1}},
		{"f1-like (PProx → engine)", cluster.Spec{
			ProxyEnabled: true, UA: 1, IA: 1,
			Encryption: true, ItemPseudonyms: true, RSAOnlyKeys: true, // the paper's suite
			LRSFrontends: 1,
		}},
	} {
		d, err := cluster.Deploy(setup.spec)
		if err != nil {
			return fmt.Errorf("deploy %s: %w", setup.name, err)
		}
		cl := d.Client(15 * time.Second)
		ctx := context.Background()
		for _, ev := range dataset.Events {
			if err := cl.Post(ctx, ev.User, ev.Item, ev.Rating); err != nil {
				d.Close()
				return fmt.Errorf("%s seed: %w", setup.name, err)
			}
		}
		if err := d.Engine.TrainNow(); err != nil {
			d.Close()
			return err
		}

		i := 0
		inj := &workload.Injector{RPS: 40, Duration: 3 * time.Second, MaxInFlight: 256}
		var res workload.Result
		run := func() {
			res = inj.Run(ctx, func(ctx context.Context) error {
				i++
				_, err := cl.Get(ctx, users[i%len(users)])
				return err
			})
		}
		var before, after scrapeSet
		var scrapeErr error
		if setup.spec.ProxyEnabled {
			before, after, scrapeErr = bracketScrape(d, run)
		} else {
			run()
		}
		fmt.Printf("%-28s sent=%d failed=%d  %s\n", setup.name, res.Sent, res.Failed, res.Latencies.Candlestick())
		if scrapeErr == nil && setup.spec.ProxyEnabled {
			printStageBreakdown(before, after)
			printFaultHandling(before, after)
		}
		if err := d.Close(); err != nil {
			return err
		}
		if scrapeErr != nil {
			return scrapeErr
		}
	}
	fmt.Println("(full-system ≈ baseline + proxy crypto overhead, as §8.2 reports)")
	return nil
}

// runMeasured cross-checks the simulator against the real implementation:
// it deploys selected Table 2 configurations in-process (real
// cryptography, real proxies, stub LRS over the in-memory network) and
// measures round-trip latencies with the open-loop injector. Absolute
// numbers depend on this host, but the ordering m1 < m2/m3 and the
// shuffle penalty of m6 must match Figures 6–7.
func runMeasured() error {
	fmt.Println("\n=== measured — real request path on this host (in-process, stub LRS) ===")
	fmt.Printf("%-6s %5s  %s\n", "config", "RPS", "round-trip latency")

	for _, name := range []string{"m1", "m3", "m6"} {
		cfg, ok := microByName(name)
		if !ok {
			return fmt.Errorf("unknown configuration %s", name)
		}
		spec := cluster.SpecFromMicro(cfg)
		spec.ShuffleTimeout = 200 * time.Millisecond
		d, err := cluster.Deploy(spec)
		if err != nil {
			return fmt.Errorf("deploy %s: %w", name, err)
		}

		cl := d.Client(10 * time.Second)
		inj := &workload.Injector{RPS: 50, Duration: 3 * time.Second, MaxInFlight: 256}
		var res workload.Result
		before, after, scrapeErr := bracketScrape(d, func() {
			res = inj.Run(context.Background(), func(ctx context.Context) error {
				_, err := cl.Get(ctx, "bench-user")
				return err
			})
		})
		if res.Failed > 0 {
			fmt.Printf("%-6s %5d  %d/%d requests failed\n", name, 50, res.Failed, res.Sent)
		} else {
			fmt.Printf("%-6s %5d  %s\n", name, 50, res.Latencies.Candlestick())
		}
		if scrapeErr == nil {
			printStageBreakdown(before, after)
			printFaultHandling(before, after)
		}
		if err := d.Close(); err != nil {
			return fmt.Errorf("close %s: %w", name, err)
		}
		if scrapeErr != nil {
			return scrapeErr
		}
	}
	return nil
}
