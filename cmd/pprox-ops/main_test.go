package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"pprox/internal/audit"
	"pprox/internal/perfslo"
	"pprox/internal/telemetry"
)

// fakeNode is a process-like UA node: /metrics with a served counter that
// grows by 10 at every scrape, a serve-stage histogram, a shuffle_wait
// histogram whose mass lies beyond its last finite bucket and, when sha
// is set, pprox_build_info; /privacy in auditState (none when empty),
// /perf in perfState answering perfStatus (neither the route nor its
// series when perfState is empty).
type fakeNode struct {
	auditState, perfState string
	perfStatus            int
	metricsStatus         int
	sha                   string
}

func (f fakeNode) serve(t *testing.T) *httptest.Server {
	var scrapes atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/metrics" && f.metricsStatus != 0:
			http.Error(w, "scrape failed", f.metricsStatus)
		case r.URL.Path == "/metrics":
			n := scrapes.Add(1)
			fmt.Fprintf(w, "pprox_proxy_requests_served_total{layer=\"UA\",node=\"ua-0\"} %d\n", 10*n)
			fmt.Fprintln(w, `pprox_proxy_shuffle_flushes_total{layer="UA",node="ua-0"} 5`)
			fmt.Fprintln(w, `pprox_proxy_stage_seconds_bucket{layer="UA",node="ua-0",stage="serve",le="0.005"} 30`)
			fmt.Fprintln(w, `pprox_proxy_stage_seconds_bucket{layer="UA",node="ua-0",stage="serve",le="0.01"} 40`)
			fmt.Fprintln(w, `pprox_proxy_stage_seconds_bucket{layer="UA",node="ua-0",stage="serve",le="+Inf"} 40`)
			fmt.Fprintln(w, `pprox_proxy_stage_seconds_bucket{layer="UA",node="ua-0",stage="shuffle_wait",le="0.01"} 0`)
			fmt.Fprintln(w, `pprox_proxy_stage_seconds_bucket{layer="UA",node="ua-0",stage="shuffle_wait",le="+Inf"} 40`)
			fmt.Fprintln(w, `pprox_audit_worst_epoch_batch 5`)
			if f.perfState != "" {
				fmt.Fprintln(w, `pprox_perfslo_state 0`)
			}
			if f.sha != "" {
				fmt.Fprintf(w, "pprox_build_info{git_sha=%q} 1\n", f.sha)
			}
		case r.URL.Path == audit.PrivacyPath && f.auditState != "":
			json.NewEncoder(w).Encode(audit.Report{State: f.auditState, TargetS: 8})
		case r.URL.Path == perfslo.PerfPath && f.perfState != "":
			w.WriteHeader(f.perfStatus)
			json.NewEncoder(w).Encode(perfslo.Report{State: f.perfState})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

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
	if code := runAudit([]string{"-targets", srv.URL + "/", "-out", out}, &stdout); code != telemetry.ExitViolated {
		t.Errorf("audit of a violated node exited %d, want %d", code, telemetry.ExitViolated)
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

// TestAuditPerfUnavailableIsAScrapeFailure: only a 404 on /perf means the
// node runs no perf SLO. A /perf that answers 503 may hide a violated
// SLO, so audit exits 1 instead of passing the node.
func TestAuditPerfUnavailableIsAScrapeFailure(t *testing.T) {
	ok := audit.StateOK.String()
	var stdout bytes.Buffer
	srv := fakeNode{auditState: ok, perfState: "violated", perfStatus: http.StatusServiceUnavailable}.serve(t)
	if code := runAudit([]string{"-targets", srv.URL}, &stdout); code != telemetry.ExitFailed {
		t.Errorf("audit with /perf answering 503 exited %d, want %d", code, telemetry.ExitFailed)
	}
	srv = fakeNode{auditState: ok}.serve(t)
	if code := runAudit([]string{"-targets", srv.URL}, &stdout); code != telemetry.ExitOK {
		t.Errorf("audit of a node without /perf exited %d, want %d:\n%s", code, telemetry.ExitOK, stdout.String())
	}
}

// TestRenderFleet renders top's view through top -once: a UA row with its
// epoch, goodput over the interval and SLO states, a DOWN row for a dead
// target, build skew between the UA and a node built from another commit,
// and the merged stage latency, with a stage whose mass lies beyond the
// last bucket marked so. A dead target fails the gate.
func TestRenderFleet(t *testing.T) {
	ua := fakeNode{auditState: "ok", perfState: "warn", perfStatus: http.StatusOK, sha: "abc123"}.serve(t)
	other := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, `pprox_build_info{git_sha="def456"} 1`)
	}))
	defer other.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	var b bytes.Buffer
	code := runTop([]string{"-once", "-interval", "100ms", "-targets", ua.URL + "," + other.URL + "," + dead.URL}, &b)
	if code != telemetry.ExitFailed {
		t.Errorf("top -once with a dead target exited %d, want %d", code, telemetry.ExitFailed)
	}
	got := b.String()
	deadHost := strings.TrimPrefix(dead.URL, "http://")
	for _, want := range []string{
		"fleet: 2 up / 1 down   goodput ",
		"worst epoch batch 5   build skew: abc123,def456\n",
		"ua-0       ua    up           5 ",
		" ok        warn\n",
		fmt.Sprintf("%-10s -     DOWN         0       0.0 -         -\n", deadHost),
		"  serve          p50    5.000  p90   10.000  p99   10.000  over 40 obs\n",
		"  shuffle_wait   p50  100.000  p90  100.000  p99  100.000  over 40 obs  (beyond last bucket)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("fleet view lacks %q:\n%s", want, got)
		}
	}
	// Two scrapes 100ms apart, 10 served between them: goodput is the
	// counter's growth over the operator's clock, so it is positive and
	// at most 100 rps.
	var rps float64
	if _, err := fmt.Sscanf(got[strings.Index(got, "goodput "):], "goodput %g rps", &rps); err != nil || rps <= 0 || rps > 100 {
		t.Errorf("goodput = %g (%v), want in (0, 100]:\n%s", rps, err, got)
	}
}

func TestTopOnceExitStatus(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []fakeNode
		want  int
	}{
		{name: "all ok", nodes: []fakeNode{{auditState: "ok", perfState: "ok", perfStatus: 200}, {auditState: "warn"}}, want: telemetry.ExitOK},
		{name: "fresh privacy violated", nodes: []fakeNode{{auditState: "ok"}, {auditState: "violated", perfState: "ok", perfStatus: 200}}, want: telemetry.ExitViolated},
		{name: "fresh perf violated", nodes: []fakeNode{{auditState: "ok", perfState: "violated", perfStatus: 200}}, want: telemetry.ExitViolated},
		{name: "scrape error", nodes: []fakeNode{{auditState: "ok"}, {metricsStatus: http.StatusInternalServerError}}, want: telemetry.ExitFailed},
		{name: "perf unavailable", nodes: []fakeNode{{auditState: "ok"}, {auditState: "ok", perfState: "violated", perfStatus: http.StatusServiceUnavailable}}, want: telemetry.ExitFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var targets []string
			for _, n := range tc.nodes {
				targets = append(targets, n.serve(t).URL)
			}
			var stdout bytes.Buffer
			if code := runTop([]string{"-once", "-interval", "10ms", "-targets", strings.Join(targets, ",")}, &stdout); code != tc.want {
				t.Errorf("top -once exited %d, want %d\n%s", code, tc.want, stdout.String())
			}
			if !strings.Contains(stdout.String(), "ua-0 ") {
				t.Errorf("top -once rendered no node rows:\n%s", stdout.String())
			}
		})
	}
	if code := runTop([]string{"-once"}, &bytes.Buffer{}); code != 2 {
		t.Errorf("top without -targets exited %d, want 2", code)
	}
}
