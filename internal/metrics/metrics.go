// Package metrics provides the operational observability the paper's
// testbed gets from its fluentd log pipeline (§7.2): every component
// exposes its instruments on a /metrics endpoint in the Prometheus text
// exposition format. The instrument set covers sampled gauges, monotonic
// counters (owned or sampled), and fixed-bucket latency histograms, all
// optionally labeled; observation paths are lock-free so instrumenting
// the proxy pipeline does not perturb the latency distributions the
// evaluation measures.
package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Family types in the exposition format.
const (
	typeGauge     = "gauge"
	typeCounter   = "counter"
	typeHistogram = "histogram"
)

// family is one named metric family: a type, help text, and either a
// single unlabeled instrument or a set of labeled children.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	bounds     []float64 // histogram bucket layout

	// Exactly one of the following is populated.
	sampleFn func() float64 // sampled gauge or sampled counter
	counter  *Counter
	hist     *Histogram
	vec      any // *CounterVec or *HistogramVec

	mu       sync.Mutex
	children map[string]*labeledChild
}

type labeledChild struct {
	labelValues []string
	inst        any // *Counter or *Histogram
}

// child returns (creating with mk if needed) the labeled child instrument.
func (f *family) child(labelValues []string, mk func() any) any {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &labeledChild{labelValues: append([]string(nil), labelValues...), inst: mk()}
		f.children[key] = c
	}
	return c.inst
}

// setChild installs or replaces the labeled child (sampled series).
func (f *family) setChild(labelValues []string, inst any) {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	f.children[key] = &labeledChild{labelValues: append([]string(nil), labelValues...), inst: inst}
}

// Registry collects metric families and renders them on /metrics.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register installs a family, enforcing name uniqueness across types. A
// re-registration with the same type returns the existing family (so two
// components can share a labeled family); a type clash panics, as it is a
// programming error that would corrupt the exposition.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.families[f.name]; ok {
		if old.typ != f.typ || len(old.labelNames) != len(f.labelNames) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", f.name, f.typ, old.typ))
		}
		return old
	}
	r.families[f.name] = f
	return f
}

// Gauge registers a sampled value under a metric name (snake_case by
// convention). Re-registering a gauge name replaces the sampler.
func (r *Registry) Gauge(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: typeGauge, sampleFn: fn})
	f.sampleFn = fn
}

// Counter registers and returns an owned monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: typeCounter, counter: &Counter{}})
	return f.counter
}

// CounterFunc registers a sampled monotonic counter: the value is read
// from fn at exposition time. The function must be monotonically
// non-decreasing (e.g. an atomic event count owned by another component).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(&family{name: name, help: help, typ: typeCounter, sampleFn: fn})
	f.sampleFn = fn
}

// GaugeVec registers a labeled family of sampled gauges.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *FuncVec {
	return r.funcVec(name, help, typeGauge, labelNames)
}

// CounterFuncVec registers a labeled family of sampled monotonic
// counters. Each child's function must be monotonically non-decreasing.
func (r *Registry) CounterFuncVec(name, help string, labelNames ...string) *FuncVec {
	return r.funcVec(name, help, typeCounter, labelNames)
}

func (r *Registry) funcVec(name, help, typ string, labelNames []string) *FuncVec {
	f := r.register(&family{
		name: name, help: help, typ: typ,
		labelNames: append([]string(nil), labelNames...),
		children:   make(map[string]*labeledChild),
	})
	if f.vec == nil {
		f.vec = &FuncVec{f: f}
	}
	return f.vec.(*FuncVec)
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.register(&family{
		name: name, help: help, typ: typeCounter,
		labelNames: append([]string(nil), labelNames...),
		children:   make(map[string]*labeledChild),
	})
	if f.vec == nil {
		f.vec = &CounterVec{f: f}
	}
	return f.vec.(*CounterVec)
}

// Histogram registers and returns an owned histogram with the given
// bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(&family{
		name: name, help: help, typ: typeHistogram,
		bounds: buckets, hist: newHistogram(buckets),
	})
	return f.hist
}

// HistogramVec registers a labeled histogram family with the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(&family{
		name: name, help: help, typ: typeHistogram,
		bounds:     buckets,
		labelNames: append([]string(nil), labelNames...),
		children:   make(map[string]*labeledChild),
	})
	if f.vec == nil {
		f.vec = &HistogramVec{f: f}
	}
	return f.vec.(*HistogramVec)
}

// series is one rendered sample line: name suffix, rendered label block,
// and value.
type series struct {
	suffix string
	labels string
	value  float64
}

// collect renders one family's series in stable order.
func (f *family) collect() []series {
	switch {
	case f.sampleFn != nil:
		return []series{{value: f.sampleFn()}}
	case f.counter != nil:
		return []series{{value: float64(f.counter.Value())}}
	case f.hist != nil:
		return histSeries(f.hist, nil, nil)
	default:
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		children := make([]*labeledChild, 0, len(keys))
		for _, k := range keys {
			children = append(children, f.children[k])
		}
		f.mu.Unlock()

		var out []series
		for _, c := range children {
			switch inst := c.inst.(type) {
			case *Counter:
				out = append(out, series{
					labels: renderLabels(f.labelNames, c.labelValues, "", ""),
					value:  float64(inst.Value()),
				})
			case func() float64:
				out = append(out, series{
					labels: renderLabels(f.labelNames, c.labelValues, "", ""),
					value:  inst(),
				})
			case *Histogram:
				out = append(out, histSeries(inst, f.labelNames, c.labelValues)...)
			}
		}
		return out
	}
}

func histSeries(h *Histogram, labelNames, labelValues []string) []series {
	cum, sum, count := h.snapshot()
	out := make([]series, 0, len(cum)+2)
	for i, c := range cum {
		out = append(out, series{
			suffix: "_bucket",
			labels: renderLabels(labelNames, labelValues, "le", h.LE(i)),
			value:  float64(c),
		})
	}
	base := renderLabels(labelNames, labelValues, "", "")
	out = append(out,
		series{suffix: "_sum", labels: base, value: sum},
		series{suffix: "_count", labels: base, value: float64(count)},
	)
	return out
}

// renderLabels renders a `{k="v",...}` block; extraName/extraValue append
// one trailing pair (the histogram `le`). Returns "" with no labels.
func renderLabels(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraName, escapeLabel(extraValue))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format:
// backslash, double-quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot samples every series, keyed by its full rendered series name
// (including suffix and label block).
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.sortedFamilies() {
		for _, s := range f.collect() {
			out[f.name+s.suffix+s.labels] = s.value
		}
	}
	return out
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// ServeHTTP renders the registry in the text exposition format: families
// sorted by name, each with its # HELP / # TYPE preamble and its series
// in stable order.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", `\n`))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.collect() {
			fmt.Fprintf(w, "%s%s%s %g\n", f.name, s.suffix, s.labels, s.value)
		}
	}
}

var _ http.Handler = (*Registry)(nil)

// Health is a component's self-assessment served on /healthz.
type Health struct {
	// OK reports overall readiness; false renders as 503.
	OK bool `json:"-"`
	// Status is "ok" or "degraded" (derived from OK when empty).
	Status string `json:"status"`
	// Checks names individual probes (e.g. "provisioned", "next_hop")
	// with a short state string each.
	Checks map[string]string `json:"checks,omitempty"`
}

// HealthFunc produces the current health; it runs per /healthz request,
// so probes must be cheap and bounded (use short timeouts).
type HealthFunc func() Health

// Mux wraps an application handler, serving /metrics from the registry,
// /healthz from the health function (when given — otherwise /healthz
// falls through to the application), and everything else from the
// handler.
func Mux(r *Registry, health HealthFunc, app http.Handler) http.Handler {
	return MuxRoutes(r, health, nil, app)
}

// MuxRoutes is Mux with extra operator routes (e.g. the privacy
// auditor's /privacy report) dispatched by exact path before the
// application handler. Routes never shadow /metrics or /healthz.
func MuxRoutes(r *Registry, health HealthFunc, routes map[string]http.Handler, app http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch {
		case req.Method == http.MethodGet && req.URL.Path == "/metrics":
			r.ServeHTTP(w, req)
		case req.Method == http.MethodGet && req.URL.Path == "/healthz" && health != nil:
			h := health()
			if h.Status == "" {
				h.Status = "ok"
				if !h.OK {
					h.Status = "degraded"
				}
			}
			w.Header().Set("Content-Type", "application/json")
			if !h.OK {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			json.NewEncoder(w).Encode(h)
		default:
			if extra, ok := routes[req.URL.Path]; ok {
				extra.ServeHTTP(w, req)
				return
			}
			app.ServeHTTP(w, req)
		}
	})
}
