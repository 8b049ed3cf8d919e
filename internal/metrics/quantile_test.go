package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// refQuantile is the sort-based reference the histogram estimate must
// coarsen to: the rank-⌈q·n⌉ element of the sorted observations.
func refQuantile(obs []float64, q float64) float64 {
	sorted := append([]float64(nil), obs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// coarsen rounds a value up to its bucket bound, +Inf past the last one —
// the resolution loss the histogram representation imposes.
func coarsen(bounds []float64, v float64) float64 {
	i := sort.SearchFloat64s(bounds, v)
	if i < len(bounds) {
		return bounds[i]
	}
	return math.Inf(1)
}

func TestQuantileEmptyHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%g) = %g, want 0", q, got)
		}
	}
}

func TestQuantileExactBucketBoundaries(t *testing.T) {
	// Observations exactly on bucket bounds must land in (and resolve to)
	// those bounds, never the next bucket up: SearchFloat64s picks the
	// first bound ≥ v, so a value equal to a bound stays in its bucket.
	bounds := []float64{0.001, 0.01, 0.1, 1}
	h := newHistogram(bounds)
	for _, b := range bounds {
		h.Observe(b)
	}
	// 4 observations, one per bucket. Quantile q covers rank ⌈4q⌉.
	cases := []struct {
		q    float64
		want float64
	}{
		{0.25, 0.001},
		{0.26, 0.01},
		{0.5, 0.01},
		{0.75, 0.1},
		{0.99, 1},
		{1, 1},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileInfBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5) // bucket le=1
	h.Observe(10)  // implicit +Inf bucket
	h.Observe(99)  // implicit +Inf bucket
	if got := h.Quantile(0.33); got != 1 {
		t.Errorf("Quantile(0.33) = %g, want 1", got)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); !math.IsInf(got, 1) {
			t.Errorf("Quantile(%g) = %g, want +Inf (observation beyond last bound)", q, got)
		}
	}
}

func TestSplitAndAlignBound(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8} {
		h.Observe(v)
	}
	cases := []struct {
		v    float64
		want uint64
	}{
		{1, 2},           // 0.5 and the exact-bound 1
		{2, 4},           // + 1.5 and the exact-bound 2
		{4, 5},           // + 3
		{3, 4},           // not a bound: rounds down to le=2
		{0.1, 0},         // below every bound
		{math.Inf(1), 6}, // everything, including the +Inf bucket
	}
	for _, c := range cases {
		if le, above := h.Split(c.v); le != c.want || above != 6-c.want {
			t.Errorf("Split(%g) = %d, %d; want %d, %d", c.v, le, above, c.want, 6-c.want)
		}
	}
	if got := h.AlignBound(1.5); got != 2 {
		t.Errorf("AlignBound(1.5) = %g, want 2", got)
	}
	if got := h.AlignBound(4); got != 4 {
		t.Errorf("AlignBound(4) = %g, want 4 (exact bound stays)", got)
	}
	if got := h.AlignBound(5); !math.IsInf(got, 1) {
		t.Errorf("AlignBound(5) = %g, want +Inf", got)
	}
}

// TestQuantileAgainstSortedReference cross-checks the histogram estimate
// against the sort-based reference over deterministic pseudo-random
// workloads: the histogram answer must equal the coarsened reference
// answer for every tested quantile.
func TestQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := DefBuckets
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		h := newHistogram(bounds)
		obs := make([]float64, n)
		for i := range obs {
			// Mix of in-range, exact-bound, and beyond-last-bound values.
			switch rng.Intn(10) {
			case 0:
				obs[i] = bounds[rng.Intn(len(bounds))]
			case 1:
				obs[i] = bounds[len(bounds)-1] * (1 + rng.Float64())
			default:
				obs[i] = math.Exp(rng.Float64()*14 - 10) // ~45µs … ~55s
			}
			h.Observe(obs[i])
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			want := coarsen(bounds, refQuantile(obs, q))
			got := h.Quantile(q)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d n=%d: Quantile(%g) = %g, reference coarsens to %g",
					trial, n, q, got, want)
			}
		}
	}
}

// FuzzQuantile drives the same cross-check from the fuzz corpus: any
// byte string decodes to a workload + quantile, and the histogram must
// agree with the coarsened sort-based reference.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(5000))
	f.Add([]byte{}, uint16(9900))
	f.Add([]byte{255, 0, 128}, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, qRaw uint16) {
		q := float64(qRaw%10000+1) / 10000 // (0, 1]
		h := newHistogram(DefBuckets)
		obs := make([]float64, 0, len(raw))
		for _, b := range raw {
			// Map each byte across the bucket range, hitting exact bounds
			// for bytes below len(DefBuckets).
			var v float64
			if int(b) < len(DefBuckets) {
				v = DefBuckets[b]
			} else {
				v = float64(b) / 12.0 // up to ~21s, past the last bound
			}
			obs = append(obs, v)
			h.Observe(v)
		}
		if len(obs) == 0 {
			if got := h.Quantile(q); got != 0 {
				t.Fatalf("empty Quantile(%g) = %g, want 0", q, got)
			}
			return
		}
		want := coarsen(DefBuckets, refQuantile(obs, q))
		got := h.Quantile(q)
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("n=%d Quantile(%g) = %g, reference coarsens to %g", len(obs), q, got, want)
		}
	})
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	snap := r.Snapshot()
	found := false
	for series, v := range snap {
		if strings.HasPrefix(series, "pprox_build_info{") {
			found = true
			if v != 1 {
				t.Errorf("pprox_build_info = %g, want 1", v)
			}
			name, labels := ParseSeries(series)
			if name != "pprox_build_info" {
				t.Errorf("series name = %q", name)
			}
			for _, k := range []string{"version", "go_version", "git_sha"} {
				if labels[k] == "" {
					t.Errorf("pprox_build_info missing label %q (labels: %v)", k, labels)
				}
			}
		}
	}
	if !found {
		t.Fatal("pprox_build_info not exported")
	}
}
