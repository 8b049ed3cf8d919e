package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pprox/internal/proxy"
)

const (
	// warmup is how long the workload's own traffic (gets only) runs
	// before the measured window: pools fill, pages fault in, the hop
	// connections are dialled.
	warmup = 2 * time.Second
	// sliceLen is the granularity of quiet-half pooling: one burst period,
	// so a burst is kept or dropped whole. Coarser slices blur a stolen
	// tick over requests it never touched (get_p95_ms spread over eight
	// runs: 19 % at 1 s, 10 % at 200 ms).
	sliceLen = 200 * time.Millisecond
	// saturateFor is the length of the informational closed-loop probe.
	saturateFor = 2 * time.Second
)

// Config is one invocation's input.
type Config struct {
	Workload Workload
	Seed     int64
	// Seconds is the length of the measured window.
	Seconds int
	// Trace makes this the traced run: it reports the per-layer metrics
	// and records spans; end-to-end metrics come from untraced runs only.
	Trace bool
	// Tmp is where WAL files go.
	Tmp string
	// Quick shrinks warm-up and the isolated-call loops; the tests' smoke
	// runs set it.
	Quick bool
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the benchmark ends its output with.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is everything one run produced; -out writes it whole.
type Report struct {
	Provenance Provenance `json:"provenance"`
	Result     Result     `json:"result"`
	// Samples is how many successful requests each timing was read off,
	// and Percentiles the percentile actually used where the samples did
	// not support the one the metric is named after.
	Samples     map[string]int     `json:"samples"`
	Percentiles map[string]float64 `json:"percentiles,omitempty"`
	// AsMeasured holds the gated timings before they were brought to
	// reference speed, and RefOpUs what one reference operation cost, in
	// microseconds, while each was taken (probe.go).
	AsMeasured map[string]float64 `json:"as_measured,omitempty"`
	RefOpUs    map[string]float64 `json:"ref_op_us,omitempty"`
	// RefFirings is every reading of the probe during the window, in order.
	RefFirings []time.Duration `json:"ref_firings_ns,omitempty"`
	// Broken lists every end-of-run invariant that did not hold.
	Broken []string `json:"broken,omitempty"`
	Budget *Budget  `json:"budget,omitempty"`
	Spans  []Span   `json:"spans,omitempty"`
}

// counters reads every cumulative count the per-layer metrics need, from
// the deployment's public accessors. Metrics are differences of two
// readings around the measured window.
func (e *Env) counters() map[string]float64 {
	c := map[string]float64{}
	if eng := e.d.Engine; eng != nil {
		c["lrs.applied"] = float64(eng.EventsApplied())
		c["lrs.apply_s"] = eng.ApplySeconds()
		c["lrs.wal_errors"] = float64(eng.WALErrors())
		c["lrs.dups"] = float64(eng.DupEvents())
	}
	if !e.w.Proxied {
		return c
	}
	epochs, underfilled, _, _ := e.d.Auditor.Stats()
	c["audit.epochs"], c["audit.underfilled"] = float64(epochs), float64(underfilled)
	for role, l := range map[string]*proxy.Layer{"ua": e.d.UALayers[0], "ia": e.d.IALayers[0]} {
		c[role+".ecalls"] = float64(l.Enclave().EcallCount())
		c[role+".msgs"] = float64(l.Enclave().MessageCount())
		if h := l.StageHistogram(proxy.StageShuffleWait); h != nil {
			c[role+".shuffle_wait_s"], c[role+".shuffle_wait_n"] = h.Sum(), float64(h.Count())
		}
		_, sheds := l.Shuffler().Stats()
		bs := l.BatchStats()
		retries, _ := l.RetryStats()
		hw := l.Hopwire().Stats()
		c["proxy.shuffle_sheds"] += float64(sheds)
		c["proxy.batch_retries"] += float64(bs.Retries)
		c["proxy.batch_splits"] += float64(bs.Splits)
		c["proxy.batch_degraded"] += float64(bs.Degraded)
		c["proxy.forward_retries"] += float64(retries)
		c["hop.exchanges"] += float64(hw.Exchanges)
		c["hop.dials"] += float64(hw.Dials)
		c["hop.reuses"] += float64(hw.Reuses)
		c["hop.fallbacks"] += float64(hw.Fallbacks)
		if role == "ua" {
			c["ua.batches"], c["ua.batch_msgs"] = float64(bs.Batches), float64(bs.Messages)
		}
	}
	for series, v := range e.d.Metrics.Snapshot() {
		if !strings.HasPrefix(series, "pprox_enclave_ecall_seconds_sum{") {
			continue
		}
		switch {
		case strings.Contains(series, `node="ua-0"`):
			c["ua.ecall_s"] += v
		case strings.Contains(series, `node="ia-0"`):
			c["ia.ecall_s"] += v
		}
	}
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM of
// /proc/self/status, which starts at zero when the binary is exec'd.
// getrusage's ru_maxrss does not: it carries over the size of whatever
// process exec'd this one, and under `go run` that is the go command
// (~28 MB), which hid the stub workloads' own 16 MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// window is the raw outcome of the measured window.
type window struct {
	samples []Sample
	// cpu is the process CPU time over the window less the reference
	// probe's own; speed is what the probe measured meanwhile.
	cpu         time.Duration
	speed       Speed
	firings     []time.Duration
	steal       []uint64 // cumulative steal ticks at each slice boundary
	ticks       uint64   // ticks of every CPU state over the window
	before, aft map[string]float64
	memBefore   runtime.MemStats
	memAfter    runtime.MemStats
}

func (w window) delta(key string) float64 { return w.aft[key] - w.before[key] }

// measure drives the schedule for the measured window, reading the
// process and host counters on either side. On a traced run span
// recording switches on a third of the way in, so the same window yields
// the untraced and the traced median the tracing overhead is read off.
func (e *Env) measure(ops []Op, seconds int, traced bool, ref *Reference) window {
	var w window
	w.steal = make([]uint64, seconds*int(time.Second/sliceLen)+1)
	runtime.ReadMemStats(&w.memBefore)
	w.before = e.counters()
	_, ticks0, _ := procStat(pinnedCPU)
	mark := ref.Mark()
	cpu0 := cpuTime() - ref.Spent()
	start := time.Now()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := range w.steal {
			time.Sleep(time.Until(start.Add(time.Duration(i) * sliceLen)))
			w.steal[i], _, _ = procStat(pinnedCPU)
		}
	}()
	if traced {
		on := time.AfterFunc(time.Duration(seconds)*time.Second/3, func() { e.tracer.on.Store(true) })
		defer on.Stop()
	}
	w.samples = e.Drive(ops, nil)
	<-sampled
	w.cpu = cpuTime() - ref.Spent() - cpu0
	w.firings = ref.Firings(mark)
	w.speed = summarise(w.firings)
	_, ticks1, _ := procStat(pinnedCPU)
	w.ticks = ticks1 - ticks0
	if traced {
		e.tracer.on.Store(false)
	}
	w.aft = e.counters()
	runtime.ReadMemStats(&w.memAfter)
	return w
}

// Run executes one workload once and reports on it.
func Run(cfg Config) (*Report, error) {
	w := cfg.Workload
	rep := &Report{
		Provenance:  provenance(cfg),
		Samples:     map[string]int{},
		Percentiles: map[string]float64{},
	}
	var tracer *Tracer
	if cfg.Trace {
		tracer = NewTracer(w.Stub)
	}

	ref, err := NewReference()
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	// Set-up, several times over: one proxied set-up generates two RSA
	// keys, whose cost varies severalfold (the quartiles of 180 stub
	// set-ups: 0.26, 0.38, 0.53 s), so setup_s is the interquartile mean,
	// which over 15 of them spreads 21 % where their median spreads 31 %.
	var env *Env
	// stolen is what /proc/stat says the hypervisor took of a set-up's
	// duration (ticks of 10 ms: fine-grained enough for a set-up, too
	// coarse for a request), busy its process CPU time less the probe's.
	type setup struct{ wall, stolen, busy time.Duration }
	var setups []setup
	for i := 0; i < w.Setups; i++ {
		if env != nil {
			env.Close()
			runtime.GC() // a discarded set-up's garbage is not the workload's peak memory
		}
		t0, cpu0 := time.Now(), cpuTime()-ref.Spent()
		steal0, _, _ := procStat(pinnedCPU)
		if env, err = Setup(w, cfg.Seed, tracer, cfg.Tmp); err != nil {
			return nil, err
		}
		steal1, _, _ := procStat(pinnedCPU)
		su := setup{wall: time.Since(t0), busy: cpuTime() - ref.Spent() - cpu0}
		su.stolen = min(time.Duration(steal1-steal0)*time.Second/userHZ, max(su.wall-su.busy, 0))
		setups = append(setups, su)
	}
	defer env.Close()
	env.ref = ref

	res := &rep.Result
	count := func(samples []Sample) {
		for _, s := range samples {
			res.Attempted++
			if s.Failed {
				res.Failed++
			}
		}
	}
	verified, err := env.Verify()
	if err != nil {
		return nil, err
	}
	count(verified)

	warm := warmup
	if cfg.Quick {
		warm = warmup / 4
	}
	count(env.Drive(w.Schedule(cfg.Seed, "warmup", warm, env.users, nil, nil), nil))

	ops := w.Schedule(cfg.Seed, "measure", time.Duration(cfg.Seconds)*time.Second, env.users, env.posts, &env.nextPost)
	win := env.measure(ops, cfg.Seconds, cfg.Trace, ref)
	count(win.samples)
	rep.RefFirings = win.firings
	ref.Close() // nothing timed from here on is rescaled: leave the core to it

	done, postsOK := 0, 0
	for _, s := range win.samples {
		if !s.Failed {
			done++
			if s.Post {
				postsOK++
			}
		}
	}
	keep := quietHalf(sliceNoise(win.samples, sliceLen, win.steal))
	gets := latencies(win.samples, false, sliceLen, keep, reading{refOp: win.speed.Mid, noWait: w.Burst > 1})
	if len(gets) == 0 {
		return rep, fmt.Errorf("%s: no get completed in the quiet slices (%d of %d requests failed)", w.Name, res.Failed, res.Attempted)
	}
	values := map[string]float64{}
	tail := func(name string, lat []time.Duration, want float64) {
		q := supportedQuantile(len(lat), want)
		if q != want {
			rep.Percentiles[name] = q
		}
		rep.Samples[name] = len(lat)
		values[name] = quantileMs(lat, q)
	}

	if cfg.Trace {
		// The traced run reports single layers only, every timing as
		// measured: driver.ref_op_us says how fast the host was meanwhile.
		allGets := latencies(win.samples, false, sliceLen, nil, reading{})
		gets = latencies(win.samples, false, sliceLen, keep, reading{})
		tail("driver.get_p50_whole_ms", allGets, 0.50)
		tail("driver.get_p95_ms", gets, 0.95)
		tail("driver.get_p99_ms", allGets, 0.99)
		values["driver.get_mid_raw_ms"] = midMs(gets)
		values["driver.cpu_ms_per_req_raw"] = float64(win.cpu) / float64(time.Millisecond) / float64(done)
		values["driver.ref_op_us"] = float64(win.speed.Mean) / float64(time.Microsecond)
		if posts := latencies(win.samples, true, sliceLen, keep, reading{}); len(posts) > 0 {
			tail("driver.post_p50_ms", posts, 0.50)
			tail("driver.post_p95_ms", posts, 0.95)
		}
		values["driver.quiet_slices_kept"] = float64(len(keep))
		env.layerMetrics(win, done, values)

		spans := tracer.Spans()
		link(spans)
		b := budget(spans, w.Proxied)
		rep.Budget, rep.Spans = &b, spans
		values["proxy.ua_serve_ms_mean"], values["proxy.ua_self_ms_mean"] = b.UAServe, b.UA
		values["proxy.ia_serve_ms_mean"], values["proxy.ia_self_ms_mean"] = b.IAServe, b.IA
		values["lrs.serve_get_ms_mean"], values["lrs.serve_post_ms_mean"] = b.LRSGet, b.LRSPost
		values["driver.budget_call_ms"], values["driver.budget_client_ms"] = b.Call, b.Client
		values["driver.budget_edge_ms"], values["driver.budget_lrs_ms"] = b.Edge, b.LRS
		if b.Call > 0 {
			values["driver.budget_unattributed_pct"] = 100 * (b.Call - b.Client - b.UA - b.IA - b.LRS) / b.Call
		}

		scale, length := 10, saturateFor
		if cfg.Quick {
			scale, length = 1, saturateFor/8
		}
		if err := env.Micro(scale, values); err != nil {
			return rep, err
		}
		values["driver.sat_goodput_rps"] = env.Saturate(cfg.Seed, length)
		res.Metrics = named(PerLayer, values)
	} else {
		values["get_mid_ms"] = midMs(gets)
		rep.Samples["get_mid_ms"] = len(gets)
		// All of the window's CPU time is time the core worked.
		values["cpu_ms_per_req"] = float64(atReference(win.cpu, win.cpu, win.speed.Mean)) / float64(time.Millisecond) / float64(done)
		values["peak_rss_mb"] = peakRSSMB()
		// The set-ups are rescaled by the probe's mean over the whole run:
		// the firings during the set-ups alone are too few (30–60) for
		// how unevenly the host slows down, and made the stub workloads'
		// setup_s spread 40 % where the value as measured spread 17–32 %.
		setupSpeed := summarise(ref.Firings(0))
		at, asMeasured := make([]time.Duration, len(setups)), make([]time.Duration, len(setups))
		for i, s := range setups {
			at[i], asMeasured[i] = atReference(s.wall-s.stolen, s.busy, setupSpeed.Mean), s.wall
		}
		values["setup_s"] = midMs(at) / 1e3
		rep.Samples["setup_s"] = len(at)

		rep.AsMeasured = map[string]float64{
			"get_mid_ms":     midMs(latencies(win.samples, false, sliceLen, keep, reading{})),
			"cpu_ms_per_req": float64(win.cpu) / float64(time.Millisecond) / float64(done),
			"setup_s":        midMs(asMeasured) / 1e3,
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		rep.RefOpUs = map[string]float64{
			"get_mid_ms":     us(win.speed.Mid),
			"cpu_ms_per_req": us(win.speed.Mean),
			"setup_s":        us(setupSpeed.Mean),
		}
		rep.Samples["reference"] = win.speed.N
		res.Metrics = named(EndToEnd, values)
	}

	rep.Broken = env.Audit(postsOK)
	res.Correct = res.Failed == 0 && len(rep.Broken) == 0
	return rep, nil
}

// layerMetrics turns the counter differences over the window, and the
// traced samples' client-side stamps, into per-layer metrics.
func (e *Env) layerMetrics(win window, done int, v map[string]float64) {
	req := float64(done)
	var late, untraced, traced []time.Duration
	var encGet, decGet, encPost []time.Duration
	for _, s := range win.samples {
		late = append(late, s.Sent-s.Due)
		if !s.Post && !s.Failed {
			if s.Traced {
				traced = append(traced, s.latency())
			} else {
				untraced = append(untraced, s.latency())
			}
		}
		if !s.Traced || s.Failed || s.HTTPEnd == 0 {
			continue
		}
		enc, dec := time.Duration(s.HTTPStart-s.CallStart), time.Duration(s.CallEnd-s.HTTPEnd)
		if s.Post {
			encPost = append(encPost, enc)
		} else {
			encGet, decGet = append(encGet, enc), append(decGet, dec)
		}
	}
	v["client.encrypt_ms_per_get"], v["client.decrypt_ms_per_get"] = meanMs(encGet), meanMs(decGet)
	v["client.encrypt_ms_per_post"] = meanMs(encPost)

	v["driver.lateness_p99_ms"] = quantileMs(late, 0.99)
	if win.ticks > 0 {
		v["driver.steal_pct"] = 100 * float64(win.steal[len(win.steal)-1]-win.steal[0]) / float64(win.ticks)
	}
	if len(untraced) > 0 && len(traced) > 0 {
		v["driver.trace_overhead_pct"] = 100 * (quantileMs(traced, 0.5)/quantileMs(untraced, 0.5) - 1)
	}

	mem0, mem1 := win.memBefore, win.memAfter
	v["proc.allocs_per_req"] = float64(mem1.Mallocs-mem0.Mallocs) / req
	v["proc.alloc_kb_per_req"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / req
	v["proc.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	v["proc.gc_pause_ms_total"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	v["proc.heap_mb_end"] = float64(mem1.HeapAlloc) / (1 << 20)

	if n := win.delta("lrs.applied"); n > 0 {
		v["lrs.engine.apply_us_per_event"] = win.delta("lrs.apply_s") * 1e6 / n
	}
	v["lrs.engine.wal_errors"], v["lrs.engine.dup_events"] = win.delta("lrs.wal_errors"), win.delta("lrs.dups")
	if !e.w.Proxied {
		return
	}
	for _, role := range []string{"ua", "ia"} {
		v["enclave."+role+"_ecalls_per_req"] = win.delta(role+".ecalls") / req
		v["enclave."+role+"_ecall_ms_per_req"] = win.delta(role+".ecall_s") * 1e3 / req
		if n := win.delta(role + ".shuffle_wait_n"); n > 0 {
			v["proxy."+role+"_shuffle_wait_ms_mean"] = win.delta(role+".shuffle_wait_s") * 1e3 / n
		}
	}
	if n := win.delta("ua.ecalls"); n > 0 {
		v["enclave.ua_batch_size_mean"] = win.delta("ua.msgs") / n
	}
	epochs := win.delta("ua.batches")
	v["proxy.epochs"] = epochs
	if epochs > 0 {
		v["proxy.epoch_fill_mean"] = win.delta("ua.batch_msgs") / epochs
	}
	if n := win.delta("audit.epochs"); n > 0 {
		v["proxy.underfilled_epoch_share"] = 100 * win.delta("audit.underfilled") / n
	}
	for _, name := range []string{"proxy.shuffle_sheds", "proxy.batch_retries", "proxy.batch_splits", "proxy.batch_degraded", "proxy.forward_retries"} {
		v[name] = win.delta(name)
	}
	ex := win.delta("hop.exchanges")
	v["hopwire.exchanges_per_req"] = ex / req
	v["hopwire.dials"], v["hopwire.fallbacks"] = win.delta("hop.dials"), win.delta("hop.fallbacks")
	if ex > 0 {
		v["hopwire.conn_reuse_share"] = 100 * win.delta("hop.reuses") / ex
	}
}

// named picks the catalogue's metrics out of the computed values, so a run
// reports exactly what BENCHMARK.json lists: a layer the workload bypasses
// reports zero.
func named(defs []MetricDef, values map[string]float64) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		out[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic("benchmark: computed metric " + name + " is not in the catalogue")
		}
	}
	return out
}

// tmpDir creates the run's scratch directory inside the working
// directory (the benchmark writes nowhere else) and returns it with its
// cleanup.
func tmpDir() (string, func(), error) {
	const root = ".bench_tmp"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() {
		os.RemoveAll(dir)
		os.Remove(root) // only succeeds once no other run is using it
	}, nil
}
