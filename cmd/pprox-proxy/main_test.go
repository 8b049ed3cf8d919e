package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/node"
	"pprox/internal/obslog"
	"pprox/internal/obsprof"
	"pprox/internal/perfslo"
	"pprox/internal/proxy"
	"pprox/internal/resilience"
)

// TestEveryFlagLandsInItsField sets each flag on its own and requires it
// to change exactly its field of the options — the node.Config field for
// an instance setting, the process field otherwise — and that no flag
// goes untested.
func TestEveryFlagLandsInItsField(t *testing.T) {
	base := []string{"-role", "ua"}
	defaults, err := parseFlags(base)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want func(o *options)
	}{
		{[]string{"-role", "ia"}, func(o *options) { o.node.Role = proxy.RoleIA }},
		{[]string{"-listen", ":9"}, func(o *options) { o.listen = ":9" }},
		{[]string{"-next", "http://ia"}, func(o *options) { o.node.Next = "http://ia" }},
		{[]string{"-keys", "k.json"}, func(o *options) { o.keysPath = "k.json" }},
		{[]string{"-shuffle", "7"}, func(o *options) { o.node.ShuffleSize = 7 }},
		{[]string{"-shuffle-timeout", "3s"}, func(o *options) { o.node.ShuffleTimeout = 3 * time.Second }},
		{[]string{"-lrs-concurrency", "5"}, func(o *options) { o.node.LRSConcurrency = 5 }},
		{[]string{"-no-item-pseudonyms"}, func(o *options) { o.node.NoItemPseudonyms = true }},
		{[]string{"-passthrough"}, func(o *options) { o.node.PassThrough = true }},
		{[]string{"-node", "ua-7"}, func(o *options) { o.node.Name = "ua-7" }},
		{[]string{"-drain-timeout", "9s"}, func(o *options) { o.node.DrainTimeout = 9 * time.Second }},
		{[]string{"-debug-addr", ":6060"}, func(o *options) { o.debugAddr = ":6060" }},
		{[]string{"-trace-log", "t.jsonl"}, func(o *options) { o.traceLog = "t.jsonl" }},
		{[]string{"-log-level", "debug"}, func(o *options) { o.logLevel = "debug" }},
		{[]string{"-audit"}, func(o *options) { o.node.Audit = &audit.Config{} }},
		{[]string{"-audit", "-audit-objective", "0.9"}, func(o *options) { o.node.Audit = &audit.Config{Objective: 0.9} }},
		{[]string{"-perf"}, func(o *options) { o.node.PerfSLO = &perfslo.Config{} }},
		{[]string{"-perf-quantile", "0.95"}, func(o *options) { o.node.PerfQuantile = 0.95 }},
		{[]string{"-profile-dir", "prof"}, func(o *options) { o.node.ProfileDir = "prof" }},
		{[]string{"-no-resilience"}, func(o *options) { o.node.Resilience = nil }},
		{[]string{"-hop-timeout", "3s"}, func(o *options) { o.node.Resilience.HopTimeout = 3 * time.Second }},
		{[]string{"-retries", "4"}, func(o *options) { o.node.Resilience.MaxAttempts = 5 }},
		{[]string{"-retry-backoff", "7ms"}, func(o *options) { o.node.Resilience.BackoffBase = 7 * time.Millisecond }},
		{[]string{"-breaker-threshold", "3"}, func(o *options) { o.node.Resilience.BreakerThreshold = 3 }},
		{[]string{"-breaker-cooldown", "4s"}, func(o *options) { o.node.Resilience.BreakerCooldown = 4 * time.Second }},
		{[]string{"-inject-fault", "drop"}, func(o *options) { o.node.Faults = "drop" }},
		{[]string{"-fault-seed", "9"}, func(o *options) { o.node.FaultSeed = 9 }},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		name := strings.Join(c.args, " ")
		got, err := parseFlags(append(append([]string(nil), base...), c.args...))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		want, _ := parseFlags(base) // a fresh copy: want mutates its pointers
		c.want(&want)
		if reflect.DeepEqual(got, defaults) {
			t.Errorf("%s changed nothing", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
		for _, a := range c.args {
			covered[strings.TrimPrefix(a, "-")] = true
		}
	}
	var o options
	fs, _ := flagSet(&o)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if !covered[f.Name] {
			t.Errorf("flag -%s has no case", f.Name)
		}
	})
	if n != 27 {
		t.Errorf("pprox-proxy declares %d flags, want 27", n)
	}
}

// probe is one assembled IA instance and what it reports.
type probe struct {
	p        *node.Proxy
	profiles *obsprof.Harvester
}

// get decodes the JSON the instance serves at path.
func (pr probe) get(t *testing.T, path string, v any) {
	t.Helper()
	rec := httptest.NewRecorder()
	pr.p.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// objectives are the perf objectives of node ia-0 by stage (a cluster's
// evaluator also holds its other instances').
func (pr probe) objectives(t *testing.T) map[string]perfslo.ObjectiveReport {
	var rep perfslo.Report
	pr.get(t, perfslo.PerfPath, &rep)
	out := map[string]perfslo.ObjectiveReport{}
	for _, o := range rep.Objectives {
		if o.Node == "ia-0" {
			out[o.Name] = o
		}
	}
	return out
}

func (pr probe) privacy(t *testing.T) audit.Report {
	var rep audit.Report
	pr.get(t, audit.PrivacyPath, &rep)
	return rep
}

// fromFlags assembles an instance the way the binary does.
func fromFlags(t *testing.T, args ...string) probe {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	in, err := assemble(o, obslog.New(io.Discard, "pprox-proxy", obslog.ParseLevel("error")))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.close)
	return probe{p: in.Proxy, profiles: in.harvester}
}

// fromSpec deploys the spec and probes the instance at addr.
func fromSpec(t *testing.T, spec cluster.Spec, addr string) probe {
	t.Helper()
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return probe{p: d.Proxy(addr), profiles: d.Profiles}
}

// keyFile writes a pprox-keygen key file.
func keyFile(t *testing.T) string {
	t.Helper()
	ua, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	ia, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	data, err := proxy.MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEveryConfigFieldReachesItsTarget builds one IA instance from flags
// and one from a cluster.Spec, every node.Config field set away from its
// default wherever that entry point can set it, and follows each field
// to what it configures: proxy.Config, the enclave's transition cost,
// the auditor and its checks, the perf
// objectives and thresholds and the drain timeout. A third
// and fourth instance cover pass-through, which leaves no enclave to
// inspect.
func TestEveryConfigFieldReachesItsTarget(t *testing.T) {
	const ecallCost = 5 * time.Millisecond
	pol := resilience.DefaultPolicy()
	pol.HopTimeout, pol.MaxAttempts, pol.BackoffBase = 3*time.Second, 5, 7*time.Millisecond
	pol.BreakerThreshold, pol.BreakerCooldown = 3, 4*time.Second
	flags := fromFlags(t, "-role", "ia", "-node", "ia-0", "-next", "http://lrs", "-keys", keyFile(t),
		"-shuffle", "6", "-shuffle-timeout", "300ms", "-lrs-concurrency", "5", "-no-item-pseudonyms",
		"-hop-timeout", "3s", "-retries", "4", "-retry-backoff", "7ms", "-breaker-threshold", "3", "-breaker-cooldown", "4s",
		"-audit", "-audit-objective", "0.9", "-perf", "-perf-quantile", "0.95", "-profile-dir", t.TempDir(),
		"-drain-timeout", "9s",
		"-inject-fault", "error:status=418:path=/events", "-fault-seed", "9")
	spec := fromSpec(t, cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1, Encryption: true,
		Shuffle: 6, ShuffleTimeout: 300 * time.Millisecond, LRSConcurrency: 5,
		EcallCost: ecallCost, Resilience: &pol,
		Audit: &audit.Config{Objective: 0.9}, PerfSLO: &perfslo.Config{},
		PerfThresholds: map[string]float64{proxy.StageForward: 1.5}, ProfileDir: t.TempDir(),
		UseStub: true,
	}, "ia-0")
	flagsPT := fromFlags(t, "-role", "ua", "-passthrough", "-next", "http://ia")
	specPT := fromSpec(t, cluster.Spec{ProxyEnabled: true, UA: 1, IA: 1, UseStub: true}, "ua-0")

	type entry struct {
		name string
		pr   probe
	}
	both := []entry{{"flags", flags}, {"spec", spec}}
	cases := []struct {
		field string
		from  []entry
		check func(t *testing.T, pr probe)
	}{
		{"Role", both, func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Config().Role; got != proxy.RoleIA {
				t.Errorf("layer role %v", got)
			}
		}},
		{"Name", both, func(t *testing.T, pr probe) {
			if got := len(pr.objectives(t)); got != 4 {
				t.Errorf("%d perf objectives on node ia-0, want 4", got)
			}
		}},
		{"Next", both, func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Config().Next; got != "http://lrs" {
				t.Errorf("layer next hop %q", got)
			}
		}},
		{"ShuffleSize", both, func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Shuffler().Size(); got != 6 {
				t.Errorf("shuffler size %d", got)
			}
			if got := pr.privacy(t).TargetS; got != 6 {
				t.Errorf("auditor target S %d", got)
			}
		}},
		{"ShuffleTimeout", both, func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Config().ShuffleTimeout; got != 300*time.Millisecond {
				t.Errorf("layer shuffle timeout %v", got)
			}
			if got := pr.objectives(t)[proxy.StageShuffleWait].RawThresholdSeconds; got != 0.6 {
				t.Errorf("shuffle-wait threshold %gs, want 2 flush timers", got)
			}
		}},
		{"LRSConcurrency", both, func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Config().LRSConcurrency; got != 5 {
				t.Errorf("layer LRS concurrency %d", got)
			}
		}},
		{"PassThrough", []entry{{"flags", flagsPT}, {"spec", specPT}}, func(t *testing.T, pr probe) {
			if !pr.p.Layer.Config().PassThrough || pr.p.Layer.Enclave() != nil {
				t.Error("pass-through layer runs an enclave")
			}
		}},
		{"NoItemPseudonyms", both, func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Enclave().Identity().Name; got != proxy.IAIdentityNoItemPseudonyms.Name {
				t.Errorf("IA enclave identity %q", got)
			}
		}},
		{"EcallCost", both[1:], func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Enclave().TransitionCost(); got != ecallCost {
				t.Errorf("enclave transition cost %v", got)
			}
			want := proxy.EcallDecryptObjective(6, ecallCost).Seconds()
			if got := pr.objectives(t)[proxy.StageEcallDecrypt].RawThresholdSeconds; got != want {
				t.Errorf("ecall threshold %gs, want %gs", got, want)
			}
		}},
		{"Resilience", both, func(t *testing.T, pr probe) {
			if got := pr.p.Layer.Config().Resilience; got == nil || *got != pol {
				t.Errorf("layer resilience %+v", got)
			}
			for i := 0; i < pol.BreakerThreshold; i++ {
				pr.p.Layer.Breaker().Report(false)
			}
			if checks := pr.privacy(t).DegradedChecks; !slices.Contains(checks, "breaker open on ia-0") {
				t.Errorf("open breaker not among the auditor's checks %v", checks)
			}
		}},
		{"Audit", both, func(t *testing.T, pr probe) {
			if got := pr.privacy(t).Objective; got != 0.9 {
				t.Errorf("auditor objective %g", got)
			}
			pr.p.Layer.Enclave().Compromise()
			if checks := pr.privacy(t).DegradedChecks; !slices.Contains(checks, "enclave compromised on ia-0") {
				t.Errorf("compromise not among the auditor's checks %v", checks)
			}
		}},
		{"PerfSLO", both, func(t *testing.T, pr probe) {
			objs := pr.objectives(t)
			for _, stage := range []string{proxy.StageServe, proxy.StageShuffleWait, proxy.StageEcallDecrypt, proxy.StageForward} {
				if _, ok := objs[stage]; !ok {
					t.Errorf("no %s objective", stage)
				}
			}
			if got := objs[proxy.StageServe].RawThresholdSeconds; got != 1.1 {
				t.Errorf("serve threshold %gs, want 2 flush timers + 500ms", got)
			}
		}},
		{"PerfQuantile", both[:1], func(t *testing.T, pr probe) {
			for stage, o := range pr.objectives(t) {
				if o.Quantile != 0.95 {
					t.Errorf("%s objective quantile %g", stage, o.Quantile)
				}
			}
		}},
		{"PerfThresholds", both[1:], func(t *testing.T, pr probe) {
			if got := pr.objectives(t)[proxy.StageForward].RawThresholdSeconds; got != 1.5 {
				t.Errorf("forward threshold %gs", got)
			}
		}},
		{"ProfileDir", both, func(t *testing.T, pr probe) {
			if pr.profiles == nil {
				t.Error("no profile harvester")
			}
		}},
		{"DrainTimeout", both[:1], func(t *testing.T, pr probe) {
			if got := pr.p.Config.DrainTimeout; got != 9*time.Second {
				t.Errorf("drain timeout %v", got)
			}
		}},
		{"Faults", both[:1], func(t *testing.T, pr probe) {
			rec := httptest.NewRecorder()
			pr.p.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/events", strings.NewReader("{}")))
			if rec.Code != http.StatusTeapot {
				t.Errorf("injected fault answered %d", rec.Code)
			}
		}},
		{"FaultSeed", both[:1], func(t *testing.T, pr probe) {
			if got := pr.p.Config.FaultSeed; got != 9 {
				t.Errorf("fault seed %d", got)
			}
		}},
	}
	fields := map[string]bool{}
	for _, c := range cases {
		fields[c.field] = true
		for _, e := range c.from {
			t.Run(c.field+"/"+e.name, func(t *testing.T) { c.check(t, e.pr) })
		}
	}
	ct := reflect.TypeOf(node.Config{})
	for i := 0; i < ct.NumField(); i++ {
		if !fields[ct.Field(i).Name] {
			t.Errorf("node.Config.%s has no case", ct.Field(i).Name)
		}
	}
}
