package adversary_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/audit"
	"pprox/internal/metrics"
	"pprox/internal/proxy"
	"pprox/internal/telemetry"
)

// leakTransport serves the operator's scrapes from a node's handler in
// process and hands the adversary every body the node answers.
type leakTransport struct {
	node   http.Handler
	bodies [][]byte
}

func (l *leakTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	l.node.ServeHTTP(rec, r)
	if rec.Code == http.StatusOK {
		l.bodies = append(l.bodies, append([]byte(nil), rec.Body.Bytes()...))
	}
	return rec.Result(), nil
}

// TestFleetTelemetryGrantsNoLinkingAdvantage gives the adversary
// everything pprox-ops top reads from a UA node after each shuffle epoch —
// the /metrics and /privacy bodies — plus the fleet view top renders from
// them. The payloads must carry no identifier, and the scrape-guided
// attack must gain exactly nothing over the scrape-free in-order attack:
// the same guesses, accuracy pinned at the 1/S bound.
func TestFleetTelemetryGrantsNoLinkingAdvantage(t *testing.T) {
	eachKeyMaterial(t, testFleetTelemetryGrantsNoLinkingAdvantage)
}

func testFleetTelemetryGrantsNoLinkingAdvantage(t *testing.T, km keyMaterial) {
	const s = 8
	schedule := []int{s, s, s, s}
	st := newTappedStack(t, km, s)

	reg := metrics.NewRegistry()
	st.ua.RegisterMetrics(reg, "ua-0")
	aud := audit.New(audit.Config{TargetS: s})
	aud.RegisterMetrics(reg)
	st.ua.SetEpochObserver(func(rec proxy.EpochRecord) {
		aud.ObserveEpoch(rec.Node, rec.Batch)
	})
	leak := &leakTransport{node: metrics.MuxRoutes(reg, nil,
		map[string]http.Handler{audit.PrivacyPath: aud.Handler()}, http.NotFoundHandler())}
	top := &http.Client{Transport: leak}

	var users []string
	var edge []adversary.Event
	var rounds [][]telemetry.Scrape
	var rendered []string
	for _, size := range schedule {
		// Posts complete only after their epoch flushes, so the scrape
		// taken here reads exactly that epoch's state.
		u, e := runSchedule(t, st, []int{size})
		users = append(users, u...)
		edge = append(edge, e...)
		round := telemetry.ScrapeAll(top, []string{"http://ua-0"})
		if round[0].Err != nil {
			t.Fatalf("scrape: %v", round[0].Err)
		}
		var prev []telemetry.Scrape
		if n := len(rounds); n > 0 {
			prev = rounds[n-1]
		}
		var view strings.Builder
		telemetry.Render(&view, telemetry.View(prev, round, time.Second))
		rendered = append(rendered, view.String())
		rounds = append(rounds, round)
	}
	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != len(users) {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), len(users))
	}
	truth := st.truth(t, users)

	// No identifier — raw or pseudonymous — may appear in anything top
	// reads or shows.
	leaked := append([]string(nil), rendered...)
	for _, body := range leak.bodies {
		leaked = append(leaked, string(body))
	}
	for _, text := range leaked {
		for _, u := range users {
			if strings.Contains(text, u) {
				t.Fatalf("telemetry leaks raw user ID %q", u)
			}
		}
		if strings.Contains(text, "sensitive-item") {
			t.Fatal("telemetry leaks a raw item ID")
		}
		for u, pseudo := range truth {
			if strings.Contains(text, pseudo) {
				t.Fatalf("telemetry leaks the pseudonym of %q", u)
			}
		}
	}

	// The scrapes must be the real thing: one epoch more each round, its
	// batch on /privacy, the watermark in the view — otherwise
	// zero-advantage is vacuous.
	final := telemetry.View(rounds[len(rounds)-2], rounds[len(rounds)-1], time.Second)
	if final.Rollups.WorstEpochBatch != s {
		t.Fatalf("fleet worst epoch batch = %d, want %d (all epochs full)", final.Rollups.WorstEpochBatch, s)
	}
	if !strings.Contains(rendered[len(rendered)-1], "ua-0") {
		t.Fatalf("the rendered view has no ua-0 row:\n%s", rendered[len(rendered)-1])
	}

	// Quantitative zero-advantage: the scrapes' only linkage-relevant
	// content is the per-epoch flush size (the epoch number counts the
	// flushes the network adversary already counts). The scrape-guided
	// attack — segment both taps at each scraped epoch boundary and
	// correlate within — must produce exactly the guesses the scrape-free
	// in-order attack makes, and stay at 1/S.
	baseline := adversary.CorrelateInOrder(edge, lrs)
	var augmented []adversary.Guess
	off := 0
	for i, round := range rounds {
		if got := telemetry.View(nil, round, 0).Nodes[0].Epoch; got != uint64(i+1) {
			t.Fatalf("scrape %d reads epoch %d, want %d", i, got, i+1)
		}
		var b int
		for _, n := range round[0].Privacy.Nodes {
			b = n.LastBatch
		}
		if b <= 0 || off+b > len(lrs) {
			t.Fatalf("scrape %d: batch %d at offset %d outside the %d-message tap — "+
				"sub-epoch or phantom information", i, b, off, len(lrs))
		}
		guesses := adversary.CorrelateInOrder(edge[off:off+b], lrs[off:off+b])
		for j, g := range guesses {
			if g != baseline[off+j] {
				t.Fatalf("scrape %d changed guess %d: %v → %v — "+
					"the payload carries sub-epoch information", i, off+j, baseline[off+j], g)
			}
		}
		augmented = append(augmented, guesses...)
		off += b
	}
	if off != len(lrs) {
		t.Fatalf("scraped epochs cover %d messages, tap saw %d", off, len(lrs))
	}
	if acc := adversary.Accuracy(augmented, truth); acc > 0.4 {
		t.Errorf("scrape-guided accuracy = %.3f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
}
