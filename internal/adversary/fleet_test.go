package adversary_test

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/audit"
	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/fleet"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
)

// fleet_test.go attacks the elastic fleet (DESIGN §4j): membership churn
// — a pair admitted mid-run, a pair drained mid-run — must not hand the
// on-path adversary anything beyond the steady-state 1/S bound. The
// hazard is epoch splitting: an instance leaving with a partly-routed
// epoch, or a new instance siphoning messages out of one still filling,
// would release sub-S batches whose members correlate above 1/S.

// TestLinkingBoundHoldsDuringFleetChurn runs the §6.2 in-order
// correlation attack across a scale-up and a scale-down and asserts the
// three invariants together: the attack stays at ≈ 1/S, every epoch
// released anywhere in the fleet carried exactly S messages (the
// effective anonymity set never shrank), and the deployed auditor —
// including its fleet drain-integrity check — stayed "ok" throughout.
func TestLinkingBoundHoldsDuringFleetChurn(t *testing.T) {
	eachKeyMaterial(t, testLinkingBoundHoldsDuringFleetChurn)
}

func testLinkingBoundHoldsDuringFleetChurn(t *testing.T, km keyMaterial) {
	const s = 8
	rec := adversary.NewRecorder()
	d, err := cluster.Deploy(cluster.Spec{
		RSAOnlyKeys:    km.rsaOnly,
		ProxyEnabled:   true,
		UA:             1,
		IA:             1,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 300 * time.Millisecond,
		UseStub:        true,
		Fleet:          true,
		Audit:          &audit.Config{},
		LRSMiddleware: func(h http.Handler) http.Handler {
			return adversary.Tap(rec, "ia→lrs", func(body []byte) string {
				var req message.LRSPost
				if err := message.Unmarshal(body, &req); err == nil && req.User != "" {
					return req.User
				}
				return ""
			}, h)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Keep-alives off so every request dials: the balancer's per-dial
	// round robin then splits each 2S round exactly S/S across two UAs,
	// and both shufflers flush on occupancy — the adversary never gets
	// handed a timer-flushed partial epoch to feast on.
	httpClient := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			DialContext:       d.Balancer.DialContext,
			DisableKeepAlives: true,
		},
	}
	cl := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), httpClient, d.Entry)

	ctx := context.Background()
	var users []string
	var edge []adversary.Event
	var mu sync.Mutex
	round := func(tag string, size int) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < size; i++ {
			u := fmt.Sprintf("churn-%s-%d", tag, i)
			users = append(users, u)
			edge = append(edge, adversary.Event{T: time.Now(), Link: "client→ua", Label: u})
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if err := cl.Post(ctx, u, "sensitive-item", ""); err != nil {
					mu.Lock()
					t.Errorf("post %s: %v", u, err)
					mu.Unlock()
				}
			}(u)
			// Keep the adversary's arrival order unambiguous.
			time.Sleep(2 * time.Millisecond)
		}
		wg.Wait()
	}
	waitActive := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for d.Registry.Count("ua", fleet.StateActive) != n ||
			d.Registry.Count("ia", fleet.StateActive) != n {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %d active pairs", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Steady state on one pair.
	round("a0", s)
	round("a1", s)

	// Scale up mid-run: the new pair is pending — invisible to routing —
	// until the epoch in flight below flushes and admits it.
	if err := d.AddPair(); err != nil {
		t.Fatal(err)
	}
	round("admit", s)
	waitActive(2)

	// Churned state: rounds of 2S split S/S across the two UAs, so every
	// epoch anywhere in the fleet still fills to exactly S.
	round("b0", 2*s)
	round("b1", 2*s)

	// Scale down mid-run: the newest pair leaves through the drain
	// protocol — final epoch whole, then deregister.
	if err := d.DrainPair(); err != nil {
		t.Fatal(err)
	}
	waitActive(1)
	round("c0", s)
	round("c1", s)

	lrs := rec.Events("ia→lrs")
	if len(lrs) != len(users) {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), len(users))
	}
	truth := make(map[string]string, len(users))
	for _, u := range users {
		p, err := ppcrypto.Pseudonymize(d.UAKeys.Permanent, u)
		if err != nil {
			t.Fatal(err)
		}
		truth[u] = message.Encode64(p)
	}
	acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, lrs), truth)
	if acc > 0.4 {
		t.Errorf("in-order attack accuracy across churn = %.3f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
	t.Logf("churn attack accuracy = %.3f over %d messages (theory 1/S = %.3f)", acc, len(users), 1.0/s)

	// The anonymity set itself: no epoch released anywhere — including
	// the drained pair's last — carried fewer than S messages.
	rep := d.Auditor.Report()
	if rep.UnderfilledTotal != 0 {
		t.Errorf("underfilled epochs during churn = %d, want 0\nreport: %+v", rep.UnderfilledTotal, rep)
	}
	if rep.WorstEpochBatch != s {
		t.Errorf("worst epoch batch during churn = %d, want %d", rep.WorstEpochBatch, s)
	}
	if rep.State != audit.StateOK.String() {
		t.Errorf("audit state after churn = %s, want ok\nreport: %+v", rep.State, rep)
	}
	if len(rep.DegradedChecks) != 0 {
		t.Errorf("degraded checks after churn = %v (drain split an epoch?)", rep.DegradedChecks)
	}
	if st := d.Registry.Stats(); st.Drains != 2 || st.Deregistrations != 2 {
		t.Errorf("registry stats = %+v, want 2 drains and 2 deregistrations", st)
	}
}
