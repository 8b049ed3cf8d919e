package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pprox/internal/audit"
	"pprox/internal/fleet"
	"pprox/internal/telemetry"
)

func TestAuditAgainstFakeNode(t *testing.T) {
	rep := audit.Report{
		TargetS:            8,
		Objective:          0.99,
		State:              audit.StateViolated.String(),
		EffectiveAnonymity: 5,
		WorstEpochBatch:    5,
		EpochsTotal:        12,
		UnderfilledTotal:   2,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case audit.PrivacyPath:
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(rep)
		case "/metrics":
			w.Write([]byte("pprox_audit_slo_state 2\n"))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "cluster.json")
	var stdout bytes.Buffer
	if code := runAudit([]string{"-targets", srv.URL + "/", "-out", out}, &stdout); code != exitViolated {
		t.Errorf("audit of a violated node exited %d, want %d", code, exitViolated)
	}
	for _, want := range []string{
		srv.URL + "\n",
		"privacy SLO: VIOLATED",
		"target S=8",
		"effective anonymity set: 5   worst epoch ever: 5",
		"epochs: 12 total, 2 under-filled",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"violated"`) {
		t.Errorf("cluster artifact missing node state: %s", data)
	}

	if code := runAudit([]string{"-targets", srv.URL + "/missing,", "-timeout", "1s"}, &stdout); code != 1 {
		t.Errorf("audit of a dead endpoint exited %d, want 1", code)
	}
	if code := runAudit(nil, &stdout); code != 2 {
		t.Errorf("audit without -targets exited %d, want 2", code)
	}
}

func TestRenderFleet(t *testing.T) {
	r := telemetry.FleetReport{
		Fresh: 1,
		Stale: 1,
		Nodes: []telemetry.NodeStatus{
			{Node: "ia-0", Role: "ia", Seq: 7, Epoch: 5, AuditState: "ok", PerfState: "ok",
				Transport: telemetry.TransportStats{Pushes: 7}},
			{Node: "ua-0", Role: "ua", Seq: 9, Epoch: 6, Stale: true, AgeSeconds: 12.5, AuditState: "violated",
				Transport: telemetry.TransportStats{Pushes: 9, Errors: 2}},
		},
		Rollups: telemetry.Rollups{
			GoodputRPS:      41.5,
			WorstEpochBatch: 5,
			BuildSHAs:       []string{"abc123", "def456"},
			BuildSkew:       true,
			Fleet: &fleet.Overview{
				CurrentPairs: 2,
				DesiredPairs: 1,
				Endpoints: []fleet.Endpoint{
					{Service: "ua", Addr: "ua-0", State: "active"},
					{Service: "ua", Addr: "ua-1", State: "draining"},
				},
				Decisions: []fleet.Decision{
					{Seq: 1, Action: fleet.ActionHold, Current: 1, Desired: 1},
					{Seq: 2, Action: fleet.ActionUp, Current: 1, Desired: 2, RPS: 80},
					{Seq: 3, Action: fleet.ActionHold, Current: 2, Desired: 2},
					{Seq: 4, Action: fleet.ActionDown, Current: 2, Desired: 1, Err: "drain timed out"},
				},
			},
			StageQuantiles: map[string]telemetry.StageQuantile{
				"serve":        {P50: 0.004, P90: 0.008, P99: 0.010, Count: 40},
				"shuffle_wait": {P50: 0.1, P90: 5, P99: 5, Count: 40, Overflow: true},
			},
		},
	}
	var b bytes.Buffer
	renderFleet(&b, r)
	got := b.String()
	for _, want := range []string{
		"fleet: 1 fresh / 1 stale   goodput 41.5 rps   worst epoch batch 5   build skew: abc123,def456",
		"ua-0       ua    STALE    12.5s        6        9       0.0 violated  -         9(2)",
		"elastic fleet: 2 pairs current / 1 desired",
		"  ua   ua-1         DRAINING",
		"    #2 scale-up   1→2  rps 80.0  occ 0.00",
		"    #4 scale-down 2→1  rps 0.0  occ 0.00  err: drain timed out",
		"  serve          p50    4.000  p90    8.000  p99   10.000  over 40 obs\n",
		"  shuffle_wait   p50  100.000  p90 5000.000  p99 5000.000  over 40 obs  (beyond last bucket)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("fleet view lacks %q:\n%s", want, got)
		}
	}
	// Only the three most recent decisions are shown.
	if strings.Contains(got, "#1 ") {
		t.Errorf("fleet view shows more than the last 3 decisions:\n%s", got)
	}
}

func TestTopOnceExitStatus(t *testing.T) {
	node := func(name, auditState, perfState string, stale bool) telemetry.NodeStatus {
		return telemetry.NodeStatus{Node: name, Role: "ua", AuditState: auditState, PerfState: perfState, Stale: stale}
	}
	for _, tc := range []struct {
		name  string
		nodes []telemetry.NodeStatus
		fail  bool
		want  int
	}{
		{name: "all ok", nodes: []telemetry.NodeStatus{node("ua-0", "ok", "ok", false), node("ia-0", "warn", "", false)}, want: 0},
		{name: "fresh privacy violated", nodes: []telemetry.NodeStatus{node("ua-0", "ok", "ok", false), node("ia-0", "violated", "ok", false)}, want: exitViolated},
		{name: "fresh perf violated", nodes: []telemetry.NodeStatus{node("ua-0", "ok", "violated", false)}, want: exitViolated},
		{name: "stale violated", nodes: []telemetry.NodeStatus{node("ua-0", "ok", "ok", false), node("ia-0", "violated", "ok", true)}, want: exitViolated},
		{name: "collector error", fail: true, want: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != telemetry.FleetPath {
					http.NotFound(w, r)
					return
				}
				if tc.fail {
					http.Error(w, "encode failed", http.StatusInternalServerError)
					return
				}
				json.NewEncoder(w).Encode(telemetry.FleetReport{Nodes: tc.nodes})
			}))
			defer srv.Close()
			var stdout bytes.Buffer
			if code := runTop([]string{"-once", "-addr", srv.URL}, &stdout); code != tc.want {
				t.Errorf("top -once exited %d, want %d\n%s", code, tc.want, stdout.String())
			}
			if !tc.fail && !strings.Contains(stdout.String(), tc.nodes[0].Node) {
				t.Errorf("top -once rendered no node rows:\n%s", stdout.String())
			}
		})
	}
}
