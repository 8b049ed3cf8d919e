package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/faults"
	"pprox/internal/message"
	"pprox/internal/resilience"
)

// TestBatchClusterEndToEndWithAudit deploys the full cluster in batch
// mode with the privacy auditor attached: several epochs of gets must
// succeed, the UA must report epoch-batched forwarding and cross its
// enclave boundary about once per epoch, not once per message, a healthy
// run must never descend the degradation ladder, the IA must stay inside
// its LRS concurrency bound, and the auditor must remain ok — batching
// changes the wire shape, not the anonymity-set accounting.
func TestBatchClusterEndToEndWithAudit(t *testing.T) {
	const s = 8
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 100 * time.Millisecond,
		UseStub:        true,
		LRSConcurrency: 4,
		Audit:          &audit.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ua := d.UALayers[0]
	ecallsBefore := ua.Enclave().EcallCount()
	const epochs = 3
	for b := 0; b < epochs; b++ {
		if failed := getBatch(t, d, s, b); failed != 0 {
			t.Fatalf("batched epoch %d: %d gets failed", b, failed)
		}
	}

	stats := ua.BatchStats()
	if stats.Batches == 0 || stats.Messages != epochs*s {
		t.Errorf("UA batch stats = %+v, want ≥1 forward carrying %d messages", stats, epochs*s)
	}
	if stats.Retries != 0 || stats.Splits != 0 || stats.Degraded != 0 {
		t.Errorf("healthy cluster used the degradation ladder: %+v", stats)
	}
	// One crossing per epoch of S for a get-only workload; allow a second
	// (a timer-split epoch) plus slack.
	crossings := float64(ua.Enclave().EcallCount()-ecallsBefore) / float64(epochs*s)
	if bound := 2.0/s + 0.05; crossings > bound {
		t.Errorf("%.3f UA enclave crossings per request, want ≤ %.3f", crossings, bound)
	}
	ia := d.IALayers[0]
	if iaStats := ia.BatchStats(); iaStats.Messages != epochs*s {
		t.Errorf("IA demultiplexed %d messages, want %d", iaStats.Messages, epochs*s)
	}
	if got := ia.LRSInFlight(); got != 0 {
		t.Errorf("LRS in-flight after quiesce = %d, want 0", got)
	}
	// Both layers release every epoch; the IA's releases reach the
	// auditor after the replies do.
	waitFor(t, "both layers' epochs at the auditor", func() bool {
		seen, _, _, _ := d.Auditor.Stats()
		return seen >= 2*epochs
	})
	if st := d.Auditor.State(); st != audit.StateOK {
		t.Errorf("auditor state in batch mode = %v, want ok", st)
	}
}

// TestBatchClusterChaosExercisesLadder faults the IA's /batch route hard
// enough to exhaust whole-envelope retries and one split half: goodput
// must survive via the degradation ladder, and the UA's counters must
// show the descent actually happened.
func TestBatchClusterChaosExercisesLadder(t *testing.T) {
	const s = 4
	inj := faults.NewInjector(11)
	defer inj.Close()

	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 100 * time.Millisecond,
		UseStub:        true,
		LRSConcurrency: 2,
		Resilience: &resilience.Policy{
			HopTimeout:  2 * time.Second,
			MaxAttempts: 2,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		},
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if addr == "ia-0" {
				return inj.Middleware(h)
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Healthy epoch first: the ladder must not fire without faults.
	if failed := getBatch(t, d, s, 0); failed != 0 {
		t.Fatalf("healthy epoch: %d gets failed", failed)
	}
	if stats := d.UALayers[0].BatchStats(); stats.Retries != 0 || stats.Splits != 0 {
		t.Fatalf("ladder fired on healthy cluster: %+v", stats)
	}

	// Fail the next three /batch sends: both whole-envelope attempts and
	// the first split half. The second half and the degraded singles land.
	inj.Arm(faults.Rule{
		Kind:   faults.KindError,
		Status: http.StatusServiceUnavailable,
		Path:   message.BatchPath,
		Count:  3,
	})
	if failed := getBatch(t, d, s, 1); failed != 0 {
		t.Fatalf("chaos epoch: %d gets failed — ladder did not preserve goodput", failed)
	}

	stats := d.UALayers[0].BatchStats()
	if stats.Retries == 0 {
		t.Errorf("no whole-envelope retries recorded: %+v", stats)
	}
	if stats.Splits == 0 {
		t.Errorf("no split sends recorded: %+v", stats)
	}
	if stats.Degraded == 0 {
		t.Errorf("no per-message degradation recorded: %+v", stats)
	}

	// After the fault clears, epochs ride the batch path again.
	before := stats
	if failed := getBatch(t, d, s, 2); failed != 0 {
		t.Fatalf("recovered epoch: %d gets failed", failed)
	}
	after := d.UALayers[0].BatchStats()
	if after.Batches <= before.Batches {
		t.Errorf("recovered epoch did not use the batch path: %+v → %+v", before, after)
	}
	if after.Degraded != before.Degraded {
		t.Errorf("recovered epoch degraded %d more messages", after.Degraded-before.Degraded)
	}

	// Every user's result came back intact during all three phases.
	cl := d.Client(5 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Get(ctx, fmt.Sprintf("audit-user-%d-%d", 1, 0)); err != nil {
		t.Fatalf("post-chaos get: %v", err)
	}
}
