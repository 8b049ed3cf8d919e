package slo_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/metrics"
	"pprox/internal/perfslo"
)

// The wire formats of the engine's two instances, as served by the two
// separate engines that preceded it: every JSON key path of /privacy and
// /perf ("[]" marks array elements) and every metric series with its
// labels. Each report is populated so that its optional keys appear.

// jsonKeys lists the key paths of the JSON h serves on GET.
func jsonKeys(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	var doc any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	seen := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, c := range x {
				p := k
				if path != "" {
					p = path + "." + k
				}
				seen[p] = true
				walk(p, c)
			}
		case []any:
			for _, c := range x {
				walk(path+"[]", c)
			}
		}
	}
	walk("", doc)
	return sortedKeys(seen)
}

func sortedKeys[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func TestPrivacyWireFormat(t *testing.T) {
	a := audit.New(audit.Config{TargetS: 8, MaxKeyAge: time.Hour})
	a.AddCheck("always", func() bool { return true })
	a.SetKeyBaseline("UA")
	a.ObserveEpoch("ua-0", 4)
	a.ObserveBreach("UA")
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)

	if got, want := jsonKeys(t, a.Handler()), strings.TrimSpace(`
breached
degraded_checks
effective_anonymity
epochs_total
key_age_seconds
key_age_seconds.UA
nodes
nodes[].epochs
nodes[].last_batch
nodes[].node
nodes[].recent_epochs
nodes[].recent_epochs[].batch
nodes[].recent_epochs[].seq
nodes[].recent_epochs[].underfilled
nodes[].underfilled
nodes[].worst_batch
objective
state
state_seconds
target_s
underfilled_total
violations_total
warns_total
windows
windows[].burn_rate
windows[].burning
windows[].epochs
windows[].min_batch
windows[].underfilled
windows[].window
worst_epoch_batch
`); got != want {
		t.Errorf("/privacy keys:\n%s\nwant:\n%s", got, want)
	}
	snap := reg.Snapshot()
	if got, want := sortedKeys(snap), strings.TrimSpace(`
pprox_audit_breached_layers
pprox_audit_burn_rate{window="1h"}
pprox_audit_burn_rate{window="5m"}
pprox_audit_effective_anonymity_set
pprox_audit_epochs_total
pprox_audit_key_age_seconds{layer="UA"}
pprox_audit_slo_state
pprox_audit_underfilled_epochs_total
pprox_audit_violations_total
pprox_audit_warns_total
pprox_audit_worst_epoch_batch
`); got != want {
		t.Errorf("privacy series:\n%s\nwant:\n%s", got, want)
	}
	if v := snap["pprox_audit_slo_state"]; v != 2 {
		t.Errorf("pprox_audit_slo_state = %g, want 2 (violated)", v)
	}
}

func TestPerfWireFormat(t *testing.T) {
	h := metrics.NewRegistry().Histogram("stage_seconds", "test", []float64{0.001, 0.01})
	e := perfslo.New(perfslo.Config{})
	e.AddObjective("stage", "ua-0", h, 0.9, 0.01)
	h.Observe(5) // past the last bound: the overflow key appears
	e.Sample("ua-0", 1, map[string]map[string]uint64{"stage": {"+Inf": 1}})
	reg := metrics.NewRegistry()
	e.RegisterMetrics(reg)

	if got, want := jsonKeys(t, e.Handler()), strings.TrimSpace(`
objectives
objectives[].exemplar_epochs
objectives[].last_epoch
objectives[].name
objectives[].node
objectives[].observations
objectives[].observed_overflow
objectives[].observed_seconds
objectives[].quantile
objectives[].raw_threshold_seconds
objectives[].state
objectives[].threshold_seconds
objectives[].windows
objectives[].windows[].burn_rate
objectives[].windows[].burning
objectives[].windows[].observations
objectives[].windows[].slow
objectives[].windows[].window
state
state_seconds
violations_total
warns_total
`); got != want {
		t.Errorf("/perf keys:\n%s\nwant:\n%s", got, want)
	}
	snap := reg.Snapshot()
	if got, want := sortedKeys(snap), strings.TrimSpace(`
pprox_perfslo_burn_rate{objective="stage",node="ua-0",window="1h"}
pprox_perfslo_burn_rate{objective="stage",node="ua-0",window="5m"}
pprox_perfslo_exemplar_epoch{objective="stage",node="ua-0"}
pprox_perfslo_objective_state{objective="stage",node="ua-0"}
pprox_perfslo_state
pprox_perfslo_violations_total
pprox_perfslo_warns_total
`); got != want {
		t.Errorf("perf series:\n%s\nwant:\n%s", got, want)
	}
	if v := snap["pprox_perfslo_state"]; v != 2 {
		t.Errorf("pprox_perfslo_state = %g, want 2 (violated)", v)
	}
}
