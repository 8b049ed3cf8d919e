package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/cluster"
	"pprox/internal/faults"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/resilience"
)

// chaosPolicy is an aggressive resilience policy sized for fast tests:
// retries come quickly and breakers open and probe within milliseconds.
func chaosPolicy() *resilience.Policy {
	return &resilience.Policy{
		HopTimeout:       2 * time.Second,
		MaxAttempts:      4,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       25 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
	}
}

// lrsPostLabel extracts the pseudonymous user from a cleartext LRS
// insertion — what the paper's adversary reads on the LRS link.
func lrsPostLabel(body []byte) string {
	var req message.LRSPost
	if err := message.Unmarshal(body, &req); err == nil {
		return req.User
	}
	return ""
}

// TestChaosKillRestartGoodputAndLinking kills one IA instance and one LRS
// front end mid-run, then restarts them, asserting (a) goodput recovers
// after re-admission and (b) the timing adversary's linking accuracy stays
// at the shuffling bound throughout — faults and retries must not create a
// linkable signal.
func TestChaosKillRestartGoodputAndLinking(t *testing.T) {
	const s = 4
	// Each batch posts two whole epochs so the shuffler flushes on
	// occupancy; the timer is a backstop only. Timer-split partial
	// epochs would sit right at the accuracy threshold (a 2-message
	// epoch correlates at 0.5) and made this test flake under the CPU
	// contention of a parallel full-suite run.
	const n = 2 * s
	rec := adversary.NewRecorder()
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true,
		// One UA, and one LRS request at a time per IA: an epoch reaches
		// the LRS in the order the UA framed it, so only the shuffle can
		// scramble the LRS link. Two UAs filling their epochs
		// alternately, or a concurrent fan-out to the LRS, would scramble
		// it by themselves and hide a missing shuffle.
		UA:             1,
		IA:             2,
		LRSConcurrency: 1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 500 * time.Millisecond,
		LRSFrontends:   2,
		Resilience:     chaosPolicy(),
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if strings.HasPrefix(addr, "lrs-") {
				return adversary.Tap(rec, "ia→lrs", lrsPostLabel, h)
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	ctx := context.Background()
	cl := d.Client(10 * time.Second)

	var mu sync.Mutex
	var users []string
	var edge []adversary.Event

	// postBatch sends one shuffle batch of concurrent posts and returns
	// how many succeeded. Edge observations (source identity, arrival
	// time) are what the adversary sees at the UA ingress.
	postBatch := func(phase string, b int) int {
		var wg sync.WaitGroup
		ok := 0
		for i := 0; i < n; i++ {
			u := fmt.Sprintf("user-%s-%d-%d", phase, b, i)
			mu.Lock()
			users = append(users, u)
			edge = append(edge, adversary.Event{T: time.Now(), Link: "client→ua", Label: u})
			mu.Unlock()
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if err := cl.Post(ctx, u, "sensitive-item", ""); err == nil {
					mu.Lock()
					ok++
					mu.Unlock()
				}
			}(u)
			time.Sleep(2 * time.Millisecond) // unambiguous arrival order
		}
		wg.Wait()
		return ok
	}

	// Phase 1: healthy deployment — everything must land.
	healthy := 0
	for b := 0; b < 3; b++ {
		healthy += postBatch("healthy", b)
	}
	if healthy != 3*n {
		t.Fatalf("healthy phase: %d/%d posts succeeded", healthy, 3*n)
	}

	// Phase 2: crash one IA instance and one LRS front end mid-run. The
	// balancer skips refused dials and the proxy layers retry, so most
	// traffic must keep landing.
	if err := d.Kill("ia-1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Kill("lrs-1"); err != nil {
		t.Fatal(err)
	}
	outage := 0
	for b := 0; b < 3; b++ {
		outage += postBatch("outage", b)
	}
	t.Logf("outage phase: %d/%d posts succeeded; ejected ia=%v lrs=%v",
		outage, 3*n, d.Balancer.Ejected("ia"), d.Balancer.Ejected("lrs"))
	if outage < 3*n*3/4 {
		t.Errorf("outage phase: only %d/%d posts succeeded, want ≥ 75%%", outage, 3*n)
	}

	// Phase 3: restart both nodes, let breakers probe, and demand full
	// goodput again.
	if err := d.Restart("ia-1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart("lrs-1"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // past the breaker cooldown
	recovered := 0
	for b := 0; b < 3; b++ {
		recovered += postBatch("recovered", b)
	}
	if recovered != 3*n {
		t.Errorf("recovered phase: %d/%d posts succeeded, goodput did not recover", recovered, 3*n)
	}

	// The adversary correlates edge arrivals with LRS arrivals in order.
	// Shuffling bounds its accuracy at ≈ 1/S regardless of the faults;
	// killing nodes must not have created a linkable signal.
	truth := make(map[string]string, len(users))
	for _, u := range users {
		p, err := ppcrypto.Pseudonymize(d.UAKeys.Permanent, u)
		if err != nil {
			t.Fatal(err)
		}
		truth[u] = message.Encode64(p)
	}
	lrs := rec.Events("ia→lrs")
	if len(lrs) == 0 {
		t.Fatal("LRS tap saw no traffic")
	}
	acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, lrs), truth)
	if acc > 0.5 {
		t.Errorf("linking accuracy under faults = %.2f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
	t.Logf("linking accuracy under faults = %.3f (theory 1/S = %.3f)", acc, 1.0/s)
}

// TestRetriedGetUnlinkableOnInterProxyLink drops a GET's epoch frame
// twice on the IA ingress and asserts the UA's retries are
// cryptographically unlinkable on the UA→IA link: every attempt arrives as
// a fresh frame whose entry is link-wrapped with distinct bytes, and the
// request still succeeds. A retry re-randomizes the epoch the shuffler
// already released; it does not re-enter the shuffler.
func TestRetriedGetUnlinkableOnInterProxyLink(t *testing.T) {
	inj := faults.NewInjector(7, faults.Rule{Kind: faults.KindDrop, Path: message.BatchPath, Count: 2})
	defer inj.Close()

	var mu sync.Mutex
	var bodies []string
	capture := func(h http.Handler) http.Handler {
		return adversary.Tap(adversary.NewRecorder(), "ua→ia", func(body []byte) string {
			mu.Lock()
			bodies = append(bodies, string(body))
			mu.Unlock()
			return ""
		}, h)
	}

	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        2,
		ShuffleTimeout: 30 * time.Millisecond,
		UseStub:        true,
		Resilience:     chaosPolicy(),
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if addr == "ia-0" {
				// Tap first, inject second: the tap must observe the
				// attempts the fault destroys.
				return capture(inj.Middleware(h))
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl := d.Client(10 * time.Second)
	items, err := cl.Get(context.Background(), "alice")
	if err != nil {
		t.Fatalf("get did not survive two dropped attempts: %v", err)
	}
	if len(items) == 0 {
		t.Error("recovered get returned no items")
	}

	// A retry is counted before its attempt leaves, so the count is
	// complete once the client holds its answer.
	if retries := d.UALayers[0].BatchStats().Retries; retries != 2 {
		t.Errorf("UA frame retries = %d, want 2", retries)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 3 {
		t.Fatalf("IA tap saw %d attempts, want 3 (original + 2 retries)", len(bodies))
	}
	seen := make(map[string]bool, len(bodies))
	for i, b := range bodies {
		_, entries, err := message.UnmarshalBatchEpoch([]byte(b))
		if err != nil || len(entries) != 1 {
			t.Fatalf("attempt %d is not a one-entry frame (%v)", i, err)
		}
		env := string(entries[0].Body)
		if json.Valid(entries[0].Body) {
			t.Fatalf("attempt %d is not link-wrapped: %.80s", i, env)
		}
		if seen[env] {
			t.Errorf("attempt %d repeats an earlier ciphertext — retries are linkable", i)
		}
		seen[env] = true
	}

	// The epoch left the shuffler once; its retries rode that epoch.
	if flushes, _ := d.UALayers[0].Shuffler().Stats(); flushes != 1 {
		t.Errorf("UA shuffler flushed %d times, want 1 (retries do not re-enter it)", flushes)
	}
}

// TestRetriedPostNotDoubleCounted loses the LRS's reply (the event is
// stored but the caller never learns) twice; the IA retries with the same
// enclave-minted idempotency key, so the LRS stores the event exactly
// once.
func TestRetriedPostNotDoubleCounted(t *testing.T) {
	inj := faults.NewInjector(7, faults.Rule{
		Kind: faults.KindError, Status: http.StatusServiceUnavailable,
		Path: message.EventsPath, Count: 2, After: true,
	})
	defer inj.Close()

	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Resilience:     chaosPolicy(),
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if addr == "lrs-0" {
				return inj.Middleware(h)
			}
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cl := d.Client(10 * time.Second)
	if err := cl.Post(context.Background(), "alice", "war-and-peace", ""); err != nil {
		t.Fatalf("post did not survive two lost replies: %v", err)
	}

	if n := d.Engine.EventCount(); n != 1 {
		t.Errorf("LRS stores %d events, want exactly 1 (idempotent retries)", n)
	}
	if dups := d.Engine.DupEvents(); dups != 2 {
		t.Errorf("deduplicated deliveries = %d, want 2", dups)
	}
	if retries, _ := d.IALayers[0].RetryStats(); retries != 2 {
		t.Errorf("IA retries = %d, want 2", retries)
	}
}

// TestBalancerEjectsAndReadmitsDeadBackend exercises the balancer's
// per-backend breakers directly: a dead backend is ejected after repeated
// refused dials, dials keep succeeding via the live backend, and after the
// backend returns a trial dial re-admits it.
func TestBalancerEjectsAndReadmitsDeadBackend(t *testing.T) {
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             1,
		IA:             2,
		Encryption:     true,
		ItemPseudonyms: true,
		UseStub:        true,
		Resilience: &resilience.Policy{
			MaxAttempts:      2,
			BackoffBase:      2 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Kill("ia-1"); err != nil {
		t.Fatal(err)
	}

	// Force fresh dials (no pooled connections) straight at the service
	// name so the balancer sees the refusals.
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		conn, err := d.Balancer.DialContext(ctx, "mem", "ia")
		if err != nil {
			t.Fatalf("dial %d failed despite a live backend: %v", i, err)
		}
		conn.Close()
	}
	if ej := d.Balancer.Ejected("ia"); len(ej) != 1 || ej[0] != "ia-1" {
		t.Fatalf("ejected = %v, want [ia-1]", ej)
	}

	if err := d.Restart("ia-1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Balancer.Ejected("ia")) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("restarted backend never re-admitted")
		}
		time.Sleep(10 * time.Millisecond)
		if conn, err := d.Balancer.DialContext(ctx, "mem", "ia"); err == nil {
			conn.Close()
		}
	}
}
