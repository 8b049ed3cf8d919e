package workload

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestInjectorRateAndMeasurement(t *testing.T) {
	var served atomic.Int64
	inj := &Injector{RPS: 200, Duration: 500 * time.Millisecond}
	res := inj.Run(context.Background(), func(ctx context.Context) error {
		served.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})

	// Open loop at 200 RPS for 0.5 s ≈ 100 requests; allow generous
	// scheduling slack on a loaded box.
	if res.Sent < 50 || res.Sent > 120 {
		t.Errorf("sent = %d, want ≈ 100", res.Sent)
	}
	if res.Failed != 0 {
		t.Errorf("failed = %d", res.Failed)
	}
	if res.Latencies.N() == 0 {
		t.Error("no latencies recorded")
	}
	if res.Latencies.Median() < time.Millisecond {
		t.Errorf("median %v below the simulated service time", res.Latencies.Median())
	}
	if int(served.Load()) != res.Sent {
		t.Errorf("served %d != sent %d", served.Load(), res.Sent)
	}
}

func TestInjectorCountsFailures(t *testing.T) {
	inj := &Injector{RPS: 100, Duration: 200 * time.Millisecond}
	boom := errors.New("boom")
	res := inj.Run(context.Background(), func(ctx context.Context) error { return boom })
	if res.Failed != res.Sent || res.Sent == 0 {
		t.Errorf("sent=%d failed=%d, want all failed", res.Sent, res.Failed)
	}
	if res.Latencies.N() != 0 {
		t.Error("failed requests contributed latencies")
	}
}

func TestInjectorTrimsWindow(t *testing.T) {
	inj := &Injector{RPS: 100, Duration: 300 * time.Millisecond, Trim: 150 * time.Millisecond}
	res := inj.Run(context.Background(), func(ctx context.Context) error { return nil })
	// Window is [150ms, 150ms] → nearly nothing measured, but requests
	// were still sent.
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Latencies.N() > res.Sent/2 {
		t.Errorf("trim ineffective: %d of %d measured", res.Latencies.N(), res.Sent)
	}
}

func TestInjectorMaxInFlightSheds(t *testing.T) {
	inj := &Injector{RPS: 500, Duration: 200 * time.Millisecond, MaxInFlight: 1}
	var first atomic.Bool
	res := inj.Run(context.Background(), func(ctx context.Context) error {
		if first.CompareAndSwap(false, true) {
			// The first request hogs the only slot past the end of
			// the injection window.
			time.Sleep(400 * time.Millisecond)
		}
		return nil
	})
	if res.Shed == 0 {
		t.Error("no arrivals shed despite MaxInFlight=1")
	}
}

func TestInjectorContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inj := &Injector{RPS: 100, Duration: 10 * time.Second}
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	inj.Run(ctx, func(ctx context.Context) error { return nil })
	if time.Since(start) > 2*time.Second {
		t.Error("injector ignored context cancellation")
	}
}

func TestRunRepetitionsMerges(t *testing.T) {
	inj := &Injector{RPS: 100, Duration: 100 * time.Millisecond}
	res := inj.RunRepetitions(context.Background(), 3, func(ctx context.Context) error { return nil })
	if res.Sent < 15 {
		t.Errorf("sent = %d across 3 repetitions", res.Sent)
	}
	if res.Latencies.N() == 0 {
		t.Error("merged distribution empty")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := ScaledMovieLensParams(0.001)
	a := Generate(p)
	b := Generate(p)
	if !reflect.DeepEqual(a.Events[:10], b.Events[:10]) {
		t.Error("generation is not deterministic in the seed")
	}
	p2 := p
	p2.Seed++
	c := Generate(p2)
	if reflect.DeepEqual(a.Events[:10], c.Events[:10]) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGenerateCardinalities(t *testing.T) {
	p := ScaledMovieLensParams(0.01) // ~5.6k events
	d := Generate(p)
	if len(d.Events) != p.Events {
		t.Fatalf("events = %d, want %d", len(d.Events), p.Events)
	}
	users := make(map[string]bool)
	items := make(map[string]bool)
	for _, ev := range d.Events {
		users[ev.User] = true
		items[ev.Item] = true
		if ev.Rating == "" {
			t.Fatal("missing rating payload")
		}
	}
	if len(users) > p.Users || len(items) > p.Items {
		t.Errorf("cardinalities exceed bounds: %d users (≤%d), %d items (≤%d)",
			len(users), p.Users, len(items), p.Items)
	}
	if len(users) < p.Users/10 {
		t.Errorf("only %d distinct users of %d possible; activity too concentrated", len(users), p.Users)
	}
}

func TestGenerateSkew(t *testing.T) {
	d := Generate(ScaledMovieLensParams(0.05))
	counts := make(map[string]int)
	for _, ev := range d.Events {
		counts[ev.Item]++
	}
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	mean := float64(total) / float64(len(counts))
	// Zipf skew: the most popular item must dominate the mean heavily.
	if float64(max) < 10*mean {
		t.Errorf("top item count %d vs mean %.1f: distribution not heavy-tailed", max, mean)
	}
}

func TestMovieLensParamsMatchPaper(t *testing.T) {
	p := MovieLensParams()
	if p.Users != 7288 || p.Items != 17141 || p.Events != 562888 {
		t.Errorf("params %+v do not match the paper's slice", p)
	}
}

func TestDistinctUsers(t *testing.T) {
	d := Generate(ScaledMovieLensParams(0.005))
	users := d.DistinctUsers()
	seen := make(map[string]bool)
	for _, u := range users {
		if seen[u] {
			t.Fatalf("duplicate user %q", u)
		}
		seen[u] = true
	}
	if len(users) == 0 {
		t.Fatal("no users")
	}
}

// userMassByRank returns per-user event counts sorted descending and the
// total event count.
func userMassByRank(d *Dataset) (ranked []int, total int) {
	counts := make(map[string]int)
	for _, ev := range d.Events {
		counts[ev.User]++
		total++
	}
	for _, c := range counts {
		ranked = append(ranked, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ranked)))
	return ranked, total
}

func TestGenerateUserSkewHeadMass(t *testing.T) {
	// The user-activity head: a few hot users must dominate the GET
	// stream. Zipf(1.2) head mass: the top 1% of users (at least one) must carry
	// a disproportionate share of all events.
	d := Generate(ScaledMovieLensParams(0.05))
	ranked, total := userMassByRank(d)
	head := len(ranked) / 100
	if head < 1 {
		head = 1
	}
	headMass := 0
	for _, c := range ranked[:head] {
		headMass += c
	}
	frac := float64(headMass) / float64(total)
	if frac < 0.10 {
		t.Errorf("top 1%% of users (%d of %d) carry %.1f%% of events; want ≥ 10%% for Zipf(1.2)",
			head, len(ranked), frac*100)
	}
	t.Logf("head mass: top %d/%d users carry %.1f%% of %d events", head, len(ranked), frac*100, total)
}

func TestGenerateUserSkewTailMass(t *testing.T) {
	// Complement of the head test: the bottom half of users by activity
	// must be a thin tail, far below their uniform 50% share.
	d := Generate(ScaledMovieLensParams(0.05))
	ranked, total := userMassByRank(d)
	tailMass := 0
	for _, c := range ranked[len(ranked)/2:] {
		tailMass += c
	}
	frac := float64(tailMass) / float64(total)
	if frac > 0.20 {
		t.Errorf("bottom 50%% of users carry %.1f%% of events; want ≤ 20%% for Zipf(1.2)", frac*100)
	}
	t.Logf("tail mass: bottom half carries %.1f%% of %d events", frac*100, total)
}

// TestIDsAndRatingsMatchFmt: the names and ratings Generate writes are the
// strings fmt.Sprintf wrote for them — every user and item ID below the
// 10×-MovieLens counts, a few past them and below zero, and all ten
// ratings — so the generated datasets are what they were.
func TestIDsAndRatingsMatchFmt(t *testing.T) {
	p := ScaledMovieLensParams(10)
	extra := []int{-123456, -1, 999999, 1000000, 1234567890}
	for i := 0; i < p.Users; i++ {
		if got, want := UserID(i), fmt.Sprintf("ml-user-%05d", i); got != want {
			t.Fatalf("UserID(%d) = %q, want %q", i, got, want)
		}
	}
	for i := 0; i < p.Items; i++ {
		if got, want := ItemID(i), fmt.Sprintf("ml-movie-%06d", i); got != want {
			t.Fatalf("ItemID(%d) = %q, want %q", i, got, want)
		}
	}
	for _, i := range extra {
		if got, want := UserID(i), fmt.Sprintf("ml-user-%05d", i); got != want {
			t.Errorf("UserID(%d) = %q, want %q", i, got, want)
		}
		if got, want := ItemID(i), fmt.Sprintf("ml-movie-%06d", i); got != want {
			t.Errorf("ItemID(%d) = %q, want %q", i, got, want)
		}
	}
	for k, got := range ratings {
		if want := fmt.Sprintf("%.1f", 0.5+float64(k)*0.5); got != want {
			t.Errorf("rating %d = %q, want %q", k, got, want)
		}
	}
}
