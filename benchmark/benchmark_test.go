package main

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"testing"
	"time"

	"pprox/internal/workload"
)

func scheduleBytes(w Workload, seed int64) string {
	var users []string
	var posts []workload.Event
	if data := w.dataset(seed); data != nil {
		users, posts = data.DistinctUsers(), data.Events[w.SeedEvents:]
	}
	next := 0
	return fmt.Sprint(w.Schedule(seed, "measure", 3*time.Second, users, posts, &next))
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads {
		w.SeedEvents, w.HeldOut = 400, 300
		a, b, c := scheduleBytes(w, 7), scheduleBytes(w, 7), scheduleBytes(w, 8)
		if a != b {
			t.Errorf("%s: the same seed gave two different schedules", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, err := FindWorkload("full_mixed_burst")
	if err != nil {
		t.Fatal(err)
	}
	posts := []workload.Event{{User: "u1", Item: "i1"}, {User: "u2", Item: "i2"}, {User: "u3", Item: "i3"}}
	next := 0
	ops := w.Schedule(1, "measure", time.Second, []string{"a", "b", "c"}, posts, &next)
	if len(ops) != 5*shuffleSize {
		t.Fatalf("1 s of bursts every 200 ms: %d requests, want %d", len(ops), 5*shuffleSize)
	}
	for b := 0; b < len(ops); b += shuffleSize {
		n := 0
		for _, op := range ops[b : b+shuffleSize] {
			if op.Due != ops[b].Due {
				t.Fatalf("burst %d: requests due at %v and %v", b/shuffleSize, ops[b].Due, op.Due)
			}
			if op.Post {
				n++
			}
		}
		if n != 2 {
			t.Errorf("burst %d carries %d posts, want 2", b/shuffleSize, n)
		}
	}
	if next != 10 {
		t.Errorf("held-out cursor at %d after 10 posts", next)
	}
	// Uniform pacing through a proxy still ends on a whole epoch.
	trickle, _ := FindWorkload("stub_get_trickle")
	if n := len(trickle.Schedule(1, "warmup", 510*time.Millisecond, nil, nil, nil)); n != 2*shuffleSize {
		t.Errorf("510 ms of trickle: %d requests, want %d (25 rounded down to whole epochs)", n, 2*shuffleSize)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	// The generator stalled 50 ms before sending; the service took 10.
	s := Sample{Due: 100 * time.Millisecond, Sent: 150 * time.Millisecond, Done: 160 * time.Millisecond}
	if got := s.latency(); got != 60*time.Millisecond {
		t.Errorf("latency %v, want 60ms (done − due, not done − sent)", got)
	}
	noise := sliceNoise([]Sample{s}, time.Second, []uint64{5, 9})
	if noise[0].Steal != 4 || noise[0].Lateness != 50*time.Millisecond {
		t.Errorf("slice noise %+v, want steal 4 and lateness 50ms", noise[0])
	}
}

func TestQuietHalfLooksAtNoiseOnly(t *testing.T) {
	noise := []Noise{
		{Steal: 9}, {Steal: 0, Lateness: time.Millisecond}, {Steal: 3},
		{Steal: 0, Lateness: time.Microsecond}, {Steal: 7}, {Steal: 1},
	}
	want := []int{1, 3, 5}
	if got := quietHalf(noise); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept slices %v, want %v", got, want)
	}
	// Fast requests in the noisy slices and slow ones in the quiet slices:
	// pooling must keep the slow ones.
	var samples []Sample
	for i := range noise {
		lat := time.Millisecond
		if i == 1 || i == 3 || i == 5 {
			lat = time.Second
		}
		due := time.Duration(i)*time.Second + time.Millisecond
		samples = append(samples, Sample{Due: due, Sent: due, Done: due + lat})
	}
	for _, l := range latencies(samples, false, time.Second, quietHalf(noise), reading{}) {
		if l != time.Second {
			t.Errorf("pooled a %v sample from a noisy slice", l)
		}
	}
	if got := quietHalf(make([]Noise, 5)); len(got) != 3 {
		t.Errorf("the quieter half of 5 slices is %d slices, want 3", len(got))
	}
}

func TestAtReferenceRescalesOnlyTheBusyPart(t *testing.T) {
	const ms = time.Millisecond
	// 100 ms of which the core worked 40, on a host where the reference
	// operation takes twice its nominal time: the 40 count as 20.
	if got := atReference(100*ms, 40*ms, 2*refOpNominal); got != 80*ms {
		t.Errorf("half-speed host: %v, want 80ms", got)
	}
	if got := atReference(100*ms, 40*ms, refOpNominal); got != 100*ms {
		t.Errorf("reference-speed host: %v, want 100ms unchanged", got)
	}
	// The CPU clock may run a little past the wall clock's reading; no
	// probe reading means no rescaling.
	if got := atReference(10*ms, 11*ms, 2*refOpNominal); got != 5*ms {
		t.Errorf("busy beyond wall: %v, want 5ms", got)
	}
	if got := atReference(10*ms, 5*ms, 0); got != 10*ms {
		t.Errorf("no probe reading: %v, want 10ms", got)
	}
	// A sample's latency runs from its due time; its busy part is rescaled.
	// A sample's latency runs from its due time: 5 ms late, then 30 ms of
	// which the core worked 24. At a third of reference speed the 24 count
	// as 8; on a burst workload the 6 nobody worked are the hypervisor's.
	s := []Sample{{Due: 0, Sent: 5 * ms, Done: 35 * ms, Busy: 24 * ms}}
	third := reading{refOp: 3 * refOpNominal}
	if got := latencies(s, false, time.Second, nil, third); len(got) != 1 || got[0] != 19*ms {
		t.Errorf("at a third of reference speed: %v, want [19ms]", got)
	}
	third.noWait = true
	if got := latencies(s, false, time.Second, nil, third); got[0] != 13*ms {
		t.Errorf("burst workload at a third of reference speed: %v, want [13ms]", got)
	}
	if got := latencies(s, false, time.Second, nil, reading{}); got[0] != 35*ms {
		t.Errorf("as measured: %v, want [35ms]", got)
	}
}

func TestReferenceSpeedCentres(t *testing.T) {
	const us = time.Microsecond
	// Bimodal cost with one firing a garbage collection ran into.
	ops := []time.Duration{1800 * us, 1100 * us, 1100 * us, 1800 * us, 1100 * us, 1100 * us, 90000 * us, 1100 * us}
	sp := summarise(ops)
	if sp.N != 8 || sp.Mid != 1275*us || sp.Mean != 1300*us {
		t.Errorf("speed %+v, want mid 1275us (middle four) and mean 1300us (without the outlier)", sp)
	}
	if got := summarise(nil); got != (Speed{}) {
		t.Errorf("no firings: %+v", got)
	}
	if got := midMs([]time.Duration{9 * time.Millisecond, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}); got != 3 {
		t.Errorf("interquartile mean of 1,2,4,9 ms is %v, want 3", got)
	}
}

func TestSupportedQuantile(t *testing.T) {
	for _, c := range []struct {
		n         int
		want, got float64
	}{
		{5, 0.95, 0.50}, {100, 0.95, 0.90}, {199, 0.95, 0.90}, {200, 0.95, 0.95},
		{750, 0.99, 0.98}, {1000, 0.99, 0.99}, {10000, 0.50, 0.50},
	} {
		if got := supportedQuantile(c.n, c.want); got != c.got {
			t.Errorf("n=%d want p%g: read at p%g, expected p%g", c.n, 100*c.want, 100*got, 100*c.got)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3, spread := quartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || math.Abs(spread-1) > 1e-12 {
		t.Errorf("quartiles %v %v %v spread %v", q1, med, q3, spread)
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	children := []Span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}, {Start: -5, End: 0}}
	// Covered: [10,50) once, [90,100) of the child that sticks out.
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time %d, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
}

// One hand-built epoch: ten calls, ten serves, one batch, two LRS spans.
func TestBudgetSumsToTheCall(t *testing.T) {
	const ms = int64(time.Millisecond)
	var spans []Span
	add := func(name string, start, end int64, parentID int) int {
		spans = append(spans, Span{Name: name, Start: start * ms, End: end * ms, Parent: -1, Epoch: -1, id: len(spans), parentID: parentID})
		return len(spans) - 1
	}
	for i := int64(0); i < shuffleSize; i++ {
		call := add(spanClientCall, i, 50+i, -1) // 50 ms each
		add(spanClientHTTP, i+1, 49+i, call)     // 1 ms of crypto either side
		add(spanUAServe, i+2, 48+i, -1)          // 1 ms of edge either side
	}
	add(spanIABatch, 20, 40, -1)
	add(spanStubGet, 22, 26, -1)
	add(spanStubGet, 24, 30, -1) // overlaps: the two cover 8 ms
	tr := &Tracer{spans: spans}
	sorted := tr.Spans()
	link(sorted)
	for _, s := range sorted {
		if s.Epoch != 0 {
			t.Fatalf("%s [%d,%d) not joined to the epoch", s.Name, s.Start/ms, s.End/ms)
		}
		if s.Name == spanClientHTTP && sorted[s.Parent].Name != spanClientCall {
			t.Fatalf("client.http parent is %s", sorted[s.Parent].Name)
		}
		if s.backend() && sorted[s.Parent].Name != spanIABatch {
			t.Fatalf("LRS span parent is %s", sorted[s.Parent].Name)
		}
		if s.Name == spanIABatch && (sorted[s.Parent].Name != spanUAServe || sorted[s.Parent].Start != 11*ms) {
			t.Fatalf("batch parent is %s starting at %d ms, want the last ua.serve (11 ms)", sorted[s.Parent].Name, sorted[s.Parent].Start/ms)
		}
	}
	b := budget(sorted, true)
	want := Budget{Calls: 10, Call: 50, Client: 2, Edge: 2, UAServe: 46, UA: 26, IAServe: 20, IA: 12, LRS: 8}
	if b != want {
		t.Errorf("budget %+v\nwant   %+v", b, want)
	}
	if sum := b.Client + b.Edge + b.UA + b.IA + b.LRS; sum != b.Call {
		t.Errorf("self times sum to %v, the call is %v", sum, b.Call)
	}
}

// A request sent before the previous epoch's batch began, but too late to
// ride in it, contains two batches; its own is the later one.
func TestLinkPicksTheLastContainedBatch(t *testing.T) {
	spans := []Span{
		{Name: spanUAServe, Start: 0, End: 100, Parent: -1, id: 0, parentID: -1},
		{Name: spanIABatch, Start: 10, End: 20, Parent: -1, id: 1, parentID: -1},
		{Name: spanIABatch, Start: 50, End: 60, Parent: -1, id: 2, parentID: -1},
	}
	link(spans)
	if spans[0].Epoch != 1 {
		t.Errorf("serve joined epoch %d, want 1", spans[0].Epoch)
	}
	if spans[1].Parent != -1 || spans[2].Parent != 0 {
		t.Errorf("batch parents %d and %d, want none and the serve", spans[1].Parent, spans[2].Parent)
	}
}

func TestManifestMatchesCatalogue(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(m.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		check(w.Name)
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: listed as %+v, defined as %s: %s", i, m.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	strip := func(defs []MetricDef) []MetricDef {
		out := append([]MetricDef(nil), defs...)
		for i := range out {
			out[i].Bound = 0
		}
		return out
	}
	if !reflect.DeepEqual(strip(m.EndToEnd), EndToEnd) {
		t.Errorf("end_to_end lists %+v\ncatalogue has %+v", strip(m.EndToEnd), EndToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, PerLayer) {
		t.Errorf("per_layer and the catalogue differ")
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(append([]MetricDef(nil), m.EndToEnd...), m.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
}

// A one-second run of every workload, untraced and traced, must report
// exactly the metrics BENCHMARK.json lists for that kind of run — none
// missing, none extra — with every request right and every invariant held.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys every workload")
	}
	for _, w := range Workloads {
		w.Setups = 1
		if !w.Stub {
			w.SeedEvents, w.HeldOut = 400, 300
		}
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				t.Parallel()
				rep, err := Run(Config{Workload: w, Seed: 3, Seconds: 1, Trace: trace, Tmp: t.TempDir(), Quick: true})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d broken=%v", rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Broken)
				}
				defs := EndToEnd
				if trace {
					defs = PerLayer
				}
				if len(rep.Result.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d listed", len(rep.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Result.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s is listed but was not reported", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s reported in %q, listed in %q", d.Name, m.Unit, d.Unit)
					case !trace && !(m.Value > 0):
						t.Errorf("end-to-end metric %s is %v", d.Name, m.Value)
					}
				}
				if !trace {
					return
				}
				get := func(name string) float64 { return rep.Result.Metrics[name].Value }
				if w.Stub && (get("lrs.serve_get_ms_mean") != 0 || get("lrs.engine.recommend_us") != 0) {
					t.Error("the stub workload reports LRS engine work")
				}
				if w.Proxied {
					if get("proxy.epoch_fill_mean") != shuffleSize || get("hopwire.fallbacks") != 0 {
						t.Errorf("epoch fill %v, hopwire fallbacks %v", get("proxy.epoch_fill_mean"), get("hopwire.fallbacks"))
					}
					if rep.Budget.Calls == 0 || len(rep.Spans) == 0 {
						t.Error("the traced run joined no complete epoch")
					}
				} else if get("ppcrypto.oaep_decrypt_us") != 0 || get("proxy.epochs") != 0 {
					t.Error("the direct workload reports proxy work")
				}
			})
		}
	}
}
