package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pprox/internal/stats"
)

// quantileMs is the q-quantile of the samples in milliseconds (0 when
// there are none).
func quantileMs(samples []time.Duration, q float64) float64 {
	return float64(stats.NewDistribution(samples).Quantile(q)) / float64(time.Millisecond)
}

// midMs is the interquartile mean of the samples in milliseconds.
func midMs(samples []time.Duration) float64 {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(interquartileMean(sorted)) / float64(time.Millisecond)
}

func meanMs(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return float64(sum) / float64(len(samples)) / float64(time.Millisecond)
}

// percentileLadder are the percentiles a tail metric may fall back to.
var percentileLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.98, 0.99}

// supportedQuantile returns want, or — when fewer than ten of the n
// samples lie beyond it — the highest ladder percentile that still has
// ten beyond. A tail read off fewer samples is one slow request, not a
// percentile.
func supportedQuantile(n int, want float64) float64 {
	best := percentileLadder[0]
	for _, q := range percentileLadder {
		if q <= want && float64(n)*(1-q) >= 10-1e-9 { // 100·(1−0.9) is 9.999…
			best = q
		}
	}
	return best
}

// Noise is the host-noise score of one time slice of the measured window.
// It is built from what the host and the generator did, never from how
// long a request took, so choosing slices by it cannot bias latency.
type Noise struct {
	// Steal is the steal-time ticks /proc/stat charged during the slice
	// (0 when the kernel has no steal column).
	Steal uint64
	// Lateness is the latest the generator issued a request due in the
	// slice: the only stall signal left when steal is not reported.
	Lateness time.Duration
}

// quietHalf returns the indices of the quieter half (rounded up) of the
// slices, ranked by steal, then generator lateness, then position.
func quietHalf(noise []Noise) []int {
	idx := make([]int, len(noise))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		na, nb := noise[idx[a]], noise[idx[b]]
		if na.Steal != nb.Steal {
			return na.Steal < nb.Steal
		}
		return na.Lateness < nb.Lateness
	})
	keep := idx[:(len(idx)+1)/2]
	sort.Ints(keep)
	return keep
}

// Sample is one request's outcome. All times are offsets from the start
// of the measured window.
type Sample struct {
	Post bool
	// Due is when the schedule wanted the request sent, Sent when the
	// generator sent it, Done when the reply was checked. Latency is
	// Done−Due: a stall charges every request it delayed.
	Due, Sent, Done time.Duration
	// Busy is how far the process CPU clock advanced between Sent and
	// Done: the part of the latency during which the core was working —
	// on this request or on one ahead of it — and not waiting for an epoch
	// to fill or for the hypervisor. Only this part scales with the
	// host's speed, so only it is brought to reference speed.
	Busy   time.Duration
	Failed bool
	// Traced marks samples taken while span recording was on. Only they
	// carry the tracer-clock stamps below: the library call and, inside
	// it, the HTTP round trip — before which lies request encryption and
	// after which response decryption.
	Traced                                 bool
	CallStart, HTTPStart, HTTPEnd, CallEnd int64
}

func (s Sample) latency() time.Duration { return s.Done - s.Due }

// reading says how a sample's latency is read: as measured (the zero
// value), or at reference speed.
type reading struct {
	// refOp is what one reference operation cost during the window.
	refOp time.Duration
	// noWait marks a burst workload. All of an epoch's requests are in the
	// process at once and nothing outside it is waited for, so the core is
	// never idle while a request is outstanding: whatever part of its wall
	// time the process CPU clock did not advance, the hypervisor had the
	// core, and that part is left out (on the build host it is 0–40 % of a
	// burst's wall time, depending on the neighbours). Where requests do
	// wait — for an epoch to fill, for the next arrival — the wait cannot
	// be told from the hypervisor's share, and stays.
	noWait bool
}

func (r reading) latency(s Sample) time.Duration {
	wall := s.latency()
	if r.refOp == 0 {
		return wall
	}
	if r.noWait {
		wall = s.Sent - s.Due + s.Busy
	}
	return atReference(wall, s.Busy, r.refOp)
}

// latencies returns the latencies of the successful samples of one kind
// whose due time falls in a kept slice (every slice when keep is nil).
func latencies(samples []Sample, post bool, sliceLen time.Duration, keep []int, r reading) []time.Duration {
	kept := make(map[int]bool, len(keep))
	for _, i := range keep {
		kept[i] = true
	}
	var out []time.Duration
	for _, s := range samples {
		if s.Post != post || s.Failed {
			continue
		}
		if keep != nil && !kept[int(s.Due/sliceLen)] {
			continue
		}
		out = append(out, r.latency(s))
	}
	return out
}

// sliceNoise scores each slice of the window from the steal counters read
// at the slice boundaries and the samples' generator lateness.
func sliceNoise(samples []Sample, sliceLen time.Duration, steal []uint64) []Noise {
	noise := make([]Noise, len(steal)-1)
	for i := range noise {
		noise[i].Steal = steal[i+1] - steal[i]
	}
	for _, s := range samples {
		i := int(s.Due / sliceLen)
		if i < len(noise) && s.Sent-s.Due > noise[i].Lateness {
			noise[i].Lateness = s.Sent - s.Due
		}
	}
	return noise
}

// userHZ is the unit of /proc/stat's counters: ticks per second, 100 on
// every Linux.
const userHZ = 100

// procStat reads one CPU line of /proc/stat: cumulative steal ticks and
// cumulative ticks of every state, of the processor the process is bound
// to (what the hypervisor takes from the other one is not this run's
// noise), or of all of them when cpu is negative. ok is false where the
// file, the line or the steal column does not exist.
func procStat(cpu int) (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	label := "cpu"
	if cpu >= 0 {
		label += strconv.Itoa(cpu)
	}
	var fields []string
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 9 && f[0] == label {
			fields = f
			break
		}
	}
	if fields == nil {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already inside user/nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// quartileSpread is the distance between the first and third quartile of
// the values as a share of their median — the steadiness measure the
// bounds in BENCHMARK.json are set against. Quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method).
func quartileSpread(values []float64) (q1, median, q3, spread float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	at := func(p float64) float64 {
		pos := p*float64(len(v)+1) - 1
		if pos <= 0 {
			return v[0]
		}
		if pos >= float64(len(v)-1) {
			return v[len(v)-1]
		}
		lo := math.Floor(pos)
		return v[int(lo)] + (pos-lo)*(v[int(lo)+1]-v[int(lo)])
	}
	q1, median, q3 = at(0.25), at(0.5), at(0.75)
	if median != 0 {
		spread = (q3 - q1) / math.Abs(median)
	}
	return q1, median, q3, spread
}
