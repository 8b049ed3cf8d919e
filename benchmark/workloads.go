package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"pprox/internal/workload"
)

// shuffleSize is S, the paper's shuffle batch: a proxied epoch releases
// only when S requests are buffered, so S also fixes how many requests a
// burst must carry and how many are outstanding at once.
const shuffleSize = 10

// lrsShards is the event-log ring width of the engine-backed workloads.
const lrsShards = 4

// Workload is one traffic mix and the deployment it runs against. Every
// field is a fixed property of the workload; only the seed and the window
// length vary between runs.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Proxied deploys UA+IA in front of the LRS; otherwise the plain
	// client talks to the engine directly (paper b1).
	Proxied bool
	// Stub serves the zero-delay static stub instead of the engine.
	Stub bool
	// Burst is how many requests share one due time (0 or 1 = uniform
	// pacing); Period is the spacing between bursts, or between single
	// requests when pacing is uniform.
	Burst  int
	Period time.Duration
	// PostShare is the fraction of requests that are posts. Burst
	// workloads round it to a fixed post count per burst.
	PostShare float64
	// SeedEvents is how many dataset events are inserted into the engine
	// during set-up; HeldOut is the slice posts are drawn from.
	SeedEvents, HeldOut int
	// Setups is how many times set-up runs per invocation; setup_s is
	// their interquartile mean. A stub set-up is little but two RSA key
	// generations, whose time varies severalfold, so it is cheap and
	// repeats often; seeding dominates an engine set-up and is steady.
	Setups int
}

// ShuffleTimeout is the flush timer of every proxied workload. No epoch
// is meant to reach it: bursts fill an epoch at once and the trickle
// fills one every 200 ms.
const ShuffleTimeout = 500 * time.Millisecond

// Workloads lists the benchmark's traffic mixes in report order.
var Workloads = []Workload{
	{
		Name:    "stub_get_burst",
		Why:     "gets in bursts of S against the zero-delay stub: crypto, enclave, proxy, frame and hop code do all the work, shuffle wait and the LRS none",
		Proxied: true, Stub: true, Burst: shuffleSize, Period: 200 * time.Millisecond,
		Setups: 15,
	},
	{
		Name:      "lrs_direct_mixed",
		Why:       "no proxy (paper b1): 100 req/s, 80% get / 20% post, straight at the sharded WAL-backed incremental engine, so only LRS layers work",
		Period:    10 * time.Millisecond,
		PostShare: 0.2, SeedEvents: 6000, HeldOut: 5000,
		Setups: 3,
	},
	{
		Name:    "full_mixed_burst",
		Why:     "paper f1: the whole private path over the seeded engine, bursts of 8 gets + 2 posts, what a user of the service sees",
		Proxied: true, Burst: shuffleSize, Period: 200 * time.Millisecond,
		PostShare: 0.2, SeedEvents: 6000, HeldOut: 5000,
		Setups: 3,
	},
	{
		Name:    "stub_get_trickle",
		Why:     "paper m6 at 50 req/s: uniformly paced gets against the stub, epochs fill by arrival, so shuffle wait dominates and crypto changes must not move latency",
		Proxied: true, Stub: true, Period: 20 * time.Millisecond,
		Setups: 15,
	},
}

// FindWorkload looks a workload up by name.
func FindWorkload(name string) (Workload, error) {
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// dataset generates the workload's seeded event stream at 10× the paper's
// MovieLens cardinality; nil for stub workloads, which need no events.
func (w Workload) dataset(seed int64) *workload.Dataset {
	if w.Stub {
		return nil
	}
	p := workload.ScaledMovieLensParams(10)
	p.Events = w.SeedEvents + w.HeldOut
	p.Seed = seed
	return workload.Generate(p)
}

// Op is one scheduled request. Due is its offset from the start of the
// phase it belongs to.
type Op struct {
	Due  time.Duration
	Post bool
	User string
	// Item and Rating are set on posts only.
	Item, Rating string
}

// Schedule builds the request schedule of one phase: every request due in
// [0, length), generated from the seed alone. posts walks the held-out
// slice from *next so successive phases never repeat an event; a phase
// with gets only passes nil.
//
// The count is always a multiple of the burst size (and of S for uniform
// pacing through a proxy), so no phase leaves a shuffle epoch part-filled.
func (w Workload) Schedule(seed int64, phase string, length time.Duration, users []string, posts []workload.Event, next *int) []Op {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(w.Name+"/"+phase))))
	burst := w.Burst
	if burst < 1 {
		burst = 1
	}
	n := int(length/w.Period) * burst
	if w.Proxied {
		n -= n % shuffleSize
	}
	postsPerBurst := int(w.PostShare*float64(burst) + 0.5)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{Due: time.Duration(i/burst) * w.Period}
		switch {
		case posts == nil:
		case burst > 1:
			// A fixed post count per burst (shuffled into seeded
			// positions below): every epoch has the same ECALL mix.
			op.Post = i%burst < postsPerBurst
		default:
			op.Post = rng.Float64() < w.PostShare
		}
		if op.Post {
			ev := posts[*next%len(posts)]
			*next++
			op.User, op.Item, op.Rating = ev.User, ev.Item, ev.Rating
		} else {
			op.User = pickUser(rng, users)
		}
		ops = append(ops, op)
	}
	if burst > 1 {
		// Shuffle each burst so posts sit at seeded positions in it.
		for b := 0; b+burst <= len(ops); b += burst {
			rng.Shuffle(burst, func(i, j int) { ops[b+i], ops[b+j] = ops[b+j], ops[b+i] })
		}
	}
	return ops
}

// pickUser draws the user a get asks for: one of the seeded population,
// or a synthetic one when the workload has none (the stub answers anyone).
func pickUser(rng *rand.Rand, users []string) string {
	if users == nil {
		return fmt.Sprintf("bench-user-%06d", rng.Intn(100000))
	}
	return users[rng.Intn(len(users))]
}

// hashString is FNV-1a, used to give each workload and phase its own
// random stream under one seed.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
