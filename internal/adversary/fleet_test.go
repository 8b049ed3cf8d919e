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
	"pprox/internal/message"
	"pprox/internal/node"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
)

// fleet_test.go attacks membership churn on a static 2×2 deployment: a
// pair taken into the balancer's rotation between epochs, then taken out
// and retired through the drain protocol (DESIGN §4d), must not hand the
// on-path adversary anything beyond the steady-state 1/S bound. The
// hazard is epoch splitting: an instance leaving with a partly-routed
// epoch would release sub-S batches whose members correlate above 1/S.

// TestLinkingBoundHoldsDuringFleetChurn runs the §6.2 in-order
// correlation attack across a scale-up and a scale-down and asserts the
// invariants together: the attack stays at ≈ 1/S, every epoch released
// anywhere in the deployment carried exactly S messages (the effective
// anonymity set never shrank), the drained pair's reports are clean, and
// the deployed auditor stayed "ok" throughout.
func TestLinkingBoundHoldsDuringFleetChurn(t *testing.T) {
	eachKeyMaterial(t, testLinkingBoundHoldsDuringFleetChurn)
}

func testLinkingBoundHoldsDuringFleetChurn(t *testing.T, km keyMaterial) {
	const s = 8
	rec := adversary.NewRecorder()
	d, err := cluster.Deploy(cluster.Spec{
		RSAOnlyKeys:    km.rsaOnly,
		ProxyEnabled:   true,
		UA:             2,
		IA:             2,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 300 * time.Millisecond,
		UseStub:        true,
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
	// Membership changes between rounds: a round returns only once every
	// epoch it filled has left, so no epoch is in flight anywhere.
	route := func(ua, ia []string) {
		d.Balancer.Register("ua", ua...)
		d.Balancer.Register("ia", ia...)
	}

	// Steady state on one pair.
	route([]string{"ua-0"}, []string{"ia-0"})
	round("a0", s)
	round("a1", s)

	// Scale up: the second pair joins the rotation.
	route([]string{"ua-0", "ua-1"}, []string{"ia-0", "ia-1"})

	// Churned state: rounds of 2S split S/S across the two UAs, so every
	// epoch anywhere in the fleet still fills to exactly S.
	round("b0", 2*s)
	round("b1", 2*s)

	// Scale down: the second pair leaves the rotation, then drains —
	// final epoch whole — until nothing is left for a close to flush.
	route([]string{"ua-0"}, []string{"ia-0"})
	retired := []*proxy.Layer{d.UALayers[1], d.IALayers[1]}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := node.Drain(dctx, retired...); err != nil {
		t.Fatal(err)
	}
	for _, l := range retired {
		if rep := l.DrainReport(); !rep.Clean || rep.Pending != 0 || rep.InFlight != 0 {
			t.Errorf("drain report %+v, want clean and empty", rep)
		}
	}
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
		t.Errorf("degraded checks after churn = %v", rep.DegradedChecks)
	}
}
