package perfslo_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pprox/internal/cluster"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/slo"
)

// TestBreachInFirstEpochIsExemplarOne: epochs number from 1, so a breach
// in a layer's very first epoch is an exemplar like any other — 0 stays
// "none" for NewestExemplar and for the profile capture it names. The
// IA's forward objective sits below the stub's delay, so its first epoch
// breaches.
func TestBreachInFirstEpochIsExemplarOne(t *testing.T) {
	const s = 2
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Shuffle:        s,
		ShuffleTimeout: time.Second,
		UseStub:        true,
		StubDelay:      5 * time.Millisecond,
		PerfSLO: &perfslo.Config{Windows: []slo.Window{
			{Name: "1m", Duration: time.Minute, Burn: 1},
		}},
		PerfThresholds: map[string]float64{proxy.StageForward: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl := d.Client(5 * time.Second)
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := cl.Get(ctx, u); err != nil {
				t.Errorf("get: %v", err)
			}
		}(fmt.Sprintf("first-epoch-%d", i))
	}
	wg.Wait()

	if st := d.PerfSLO.State(); st != perfslo.StateViolated {
		t.Fatalf("perf SLO state = %v, want violated", st)
	}
	if got := d.PerfSLO.NewestExemplar(); got != 1 {
		t.Errorf("NewestExemplar() = %d after a breach in the first epoch, want 1", got)
	}
}
