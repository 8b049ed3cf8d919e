package adversary_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"pprox/internal/adversary"
	"pprox/internal/audit"
	"pprox/internal/message"
	"pprox/internal/metrics"
	"pprox/internal/telemetry"
)

// leakPusher hands every pushed snapshot body to the adversary.
type leakPusher struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (p *leakPusher) Push(_ context.Context, body []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bodies = append(p.bodies, append([]byte(nil), body...))
	return nil
}

func (p *leakPusher) Stats() telemetry.TransportStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return telemetry.TransportStats{Pushes: uint64(len(p.bodies))}
}

func (p *leakPusher) Close() {}

// TestFleetTelemetryGrantsNoLinkingAdvantage extends the leaked-telemetry
// adversary to the new fleet plane: the adversary captures every raw
// snapshot a UA node streams toward pprox-ops AND the collector's
// aggregated /fleet response — the full content that crosses the trust
// boundary, since the collector sits outside it. The payloads must be
// epoch-granular only (batch sizes, counters, states), and the
// snapshot-guided attack must gain exactly nothing over the report-free
// in-order attack: the same guesses, accuracy pinned at the 1/S bound.
func TestFleetTelemetryGrantsNoLinkingAdvantage(t *testing.T) {
	eachKeyMaterial(t, testFleetTelemetryGrantsNoLinkingAdvantage)
}

func testFleetTelemetryGrantsNoLinkingAdvantage(t *testing.T, km keyMaterial) {
	const s = 8
	schedule := []int{s, s, s, s}
	st := newTappedStack(t, km, s)

	reg := metrics.NewRegistry()
	st.ua.RegisterMetrics(reg, "ua")
	aud := audit.New(audit.Config{TargetS: s})

	leak := &leakPusher{}
	em, err := telemetry.NewEmitter(telemetry.EmitterConfig{
		Node: "ua-0", Role: "ua", Registry: reg, Pusher: leak,
		AuditState: func() string { return aud.State().String() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	// Pause silences the async loop; the test flushes synchronously
	// after each epoch completes instead, so the capture holds exactly
	// one snapshot per shuffle epoch, in epoch order — the adversary's
	// best case. (A flush inside the observer itself would deadlock:
	// the observer runs under the shuffler lock, and sampling the
	// registry reads shuffler occupancy gauges.)
	em.Pause()
	st.ua.SetEpochObserver(func(batch int) {
		aud.ObserveEpoch("ua-0", batch)
		em.ObserveEpoch(batch)
	})

	var users []string
	var edge []adversary.Event
	for _, size := range schedule {
		// Posts complete only after their epoch flushes, so one snapshot
		// flushed here carries exactly that epoch's state.
		u, e := runSchedule(t, st, []int{size})
		users = append(users, u...)
		edge = append(edge, e...)
		if err := em.Flush(context.Background()); err != nil {
			t.Fatalf("telemetry flush: %v", err)
		}
	}
	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != len(users) {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), len(users))
	}
	truth := st.truth(t, users)

	// Feed the captured stream through the collector's real ingest path
	// and take the /fleet body as a second leaked payload.
	col := telemetry.NewCollector(telemetry.CollectorConfig{})
	for _, body := range leak.bodies {
		rec := httptest.NewRecorder()
		col.IngestHandler().ServeHTTP(rec,
			httptest.NewRequest("POST", message.TelemetryPath, bytes.NewReader(body)))
		if rec.Code != 204 {
			t.Fatalf("ingest: status %d", rec.Code)
		}
	}
	fleetRec := httptest.NewRecorder()
	col.FleetHandler().ServeHTTP(fleetRec, httptest.NewRequest("GET", telemetry.FleetPath, nil))
	if fleetRec.Code != 200 {
		t.Fatalf("GET %s: status %d", telemetry.FleetPath, fleetRec.Code)
	}

	leaked := append([][]byte{}, leak.bodies...)
	leaked = append(leaked, fleetRec.Body.Bytes())

	// No identifier — raw or pseudonymous — may appear anywhere in the
	// streamed plane.
	for _, body := range leaked {
		text := string(body)
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

	// The stream must be the real thing: one snapshot per epoch with the
	// flush size recorded — otherwise zero-advantage is vacuous.
	var snaps []telemetry.Snapshot
	for _, body := range leak.bodies {
		var snap telemetry.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if len(snaps) != len(schedule) {
		t.Fatalf("captured %d snapshots, want one per epoch (%d)", len(snaps), len(schedule))
	}
	var fleet telemetry.FleetReport
	if err := json.Unmarshal(fleetRec.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Rollups.WorstEpochBatch != s {
		t.Fatalf("fleet worst epoch batch = %d, want %d (all epochs full)", fleet.Rollups.WorstEpochBatch, s)
	}

	// Quantitative zero-advantage: the snapshots' only linkage-relevant
	// content is the per-epoch flush size (Seq and Epoch are counters of
	// the flushes the network adversary already counts). The
	// snapshot-guided attack — segment both taps at each reported epoch
	// boundary and correlate within — must produce exactly the guesses
	// the snapshot-free in-order attack makes, and stay at 1/S.
	baseline := adversary.CorrelateInOrder(edge, lrs)
	var augmented []adversary.Guess
	off := 0
	for i, snap := range snaps {
		b := snap.LastBatch
		if b <= 0 || off+b > len(lrs) {
			t.Fatalf("snapshot %d: batch %d at offset %d outside the %d-message tap — "+
				"sub-epoch or phantom information", i, b, off, len(lrs))
		}
		guesses := adversary.CorrelateInOrder(edge[off:off+b], lrs[off:off+b])
		for j, g := range guesses {
			if g != baseline[off+j] {
				t.Fatalf("snapshot %d changed guess %d: %v → %v — "+
					"the payload carries sub-epoch information", i, off+j, baseline[off+j], g)
			}
		}
		augmented = append(augmented, guesses...)
		off += b
	}
	if off != len(lrs) {
		t.Fatalf("snapshot epochs cover %d messages, tap saw %d", off, len(lrs))
	}
	if acc := adversary.Accuracy(augmented, truth); acc > 0.4 {
		t.Errorf("snapshot-guided accuracy = %.3f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
}
