package adversary_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/cluster"
	"pprox/internal/reccache"
)

// cache_test.go attacks the in-enclave recommendation cache: serving hits
// from inside the IA enclave must not weaken the 1/S timing bound (hits
// re-enter the shuffler like any other request) and must not open a
// latency side channel that distinguishes cached users from uncached ones.

// getBatches drives full shuffle epochs of concurrent gets through the
// tapped stack, one batch per schedule row, recording the adversary's
// edge observations in arrival order.
func getBatches(t *testing.T, st *tappedStack, schedule [][]string) (edge []adversary.Event) {
	t.Helper()
	ctx := context.Background()
	for _, batch := range schedule {
		var wg sync.WaitGroup
		for _, u := range batch {
			edge = append(edge, adversary.Event{T: time.Now(), Link: "client→ua", Label: u})
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if _, err := st.client.Get(ctx, u); err != nil {
					t.Errorf("get %s: %v", u, err)
				}
			}(u)
			// Keep the adversary's arrival order unambiguous.
			time.Sleep(2 * time.Millisecond)
		}
		wg.Wait()
	}
	return edge
}

func TestTimingAttackDefeatedWithCacheHits(t *testing.T) {
	eachKeyMaterial(t, testTimingAttackDefeatedWithCacheHits)
}

func testTimingAttackDefeatedWithCacheHits(t *testing.T, km keyMaterial) {
	// §6.2's 1/S bound must survive the cache: a hit epoch and a miss
	// epoch release identically, and hits additionally never appear on
	// the IA→LRS link at all — the adversary's egress stream thins out
	// while the bound on what remains stays 1/S.
	const s = 8
	cache := reccache.New(reccache.Config{TTL: time.Minute})
	st := newTappedStackWithCache(t, km, s, cache)
	ctx := context.Background()

	// Population the cache will serve: seed their histories (full post
	// epochs) so the engine returns real lists, then warm with one get
	// epoch per 8 users.
	population := make([]string, 2*s)
	for i := range population {
		population[i] = fmt.Sprintf("regular-%02d", i)
	}
	for b := 0; b < 2; b++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			u := population[b*s+i]
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if err := st.client.Post(ctx, u, "item-"+u, ""); err != nil {
					t.Errorf("post %s: %v", u, err)
				}
			}(u)
		}
		wg.Wait()
	}
	if err := st.engine.TrainNow(); err != nil {
		t.Fatal(err)
	}
	getBatches(t, st, [][]string{population[:s], population[s:]})

	warmStats := cache.Stats()
	warmLRS := len(st.rec.Events("ia→lrs"))

	// Attack phase: every epoch mixes 6 cached regulars with 2 cold
	// users. The adversary records arrival order at the edge and watches
	// the LRS link.
	var schedule [][]string
	var attacked []string
	for b := 0; b < 6; b++ {
		batch := make([]string, 0, s)
		for i := 0; i < 6; i++ {
			batch = append(batch, population[(b*6+i)%len(population)])
		}
		for i := 0; i < 2; i++ {
			batch = append(batch, fmt.Sprintf("cold-%d-%d", b, i))
		}
		schedule = append(schedule, batch)
		attacked = append(attacked, batch...)
	}
	edge := getBatches(t, st, schedule)

	stats := cache.Stats()
	hits := stats.Hits - warmStats.Hits
	misses := stats.Misses - warmStats.Misses
	hitRate := float64(hits) / float64(hits+misses)
	if hitRate < 0.5 {
		t.Fatalf("attack-phase hit rate = %.2f, want ≥ 0.5 (hits=%d misses=%d)", hitRate, hits, misses)
	}

	// Hits never cross the IA→LRS link: the egress stream holds exactly
	// the misses.
	lrs := st.rec.Events("ia→lrs")[warmLRS:]
	if uint64(len(lrs)) != misses {
		t.Errorf("LRS link carried %d messages during the attack, want the %d misses only", len(lrs), misses)
	}

	// What remains correlates no better than 1/S. Denominators are
	// small, so allow generous noise above 1/S = 0.125 — but nowhere
	// near the unshuffled ≈ 1.0.
	acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, lrs), st.truth(t, attacked))
	if acc > 0.4 {
		t.Errorf("in-order attack accuracy with cache = %.2f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
	accNearest := adversary.Accuracy(adversary.CorrelateNearestTime(edge, lrs), st.truth(t, attacked))
	if accNearest > 0.4 {
		t.Errorf("nearest-time attack accuracy with cache = %.2f, want ≈ 1/S = %.3f", accNearest, 1.0/s)
	}
	t.Logf("hit rate %.2f, in-order acc %.3f, nearest-time acc %.3f (theory 1/S = %.3f)",
		hitRate, acc, accNearest, 1.0/s)
}

func TestCacheHitTimingIndistinguishableInsideEpoch(t *testing.T) {
	eachKeyMaterial(t, testCacheHitTimingIndistinguishableInsideEpoch)
}

func testCacheHitTimingIndistinguishableInsideEpoch(t *testing.T, km keyMaterial) {
	// The latency side channel: a hit skips the LRS round trip, so if
	// hits returned early the adversary (or the user's own network
	// observer) could tell cached users from uncached ones. Hits must
	// wait for their shuffle epoch like everyone else, so within one
	// epoch the hit/miss latency difference stays far below the LRS
	// service time the hits saved.
	const s = 8
	const stubDelay = 60 * time.Millisecond
	d, err := cluster.Deploy(cluster.Spec{
		RSAOnlyKeys:  km.rsaOnly,
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		Shuffle: s, ShuffleTimeout: 5 * time.Second,
		UseStub: true, StubDelay: stubDelay,
		LRSFrontends: 1,
		Cache:        true, CacheTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(20 * time.Second)
	ctx := context.Background()

	// Warm epoch: 8 distinct users, all misses.
	warm := make([]string, s)
	for i := range warm {
		warm[i] = fmt.Sprintf("warm-%d", i)
	}
	var wg sync.WaitGroup
	for _, u := range warm {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			if _, err := cl.Get(ctx, u); err != nil {
				t.Errorf("warm get %s: %v", u, err)
			}
		}(u)
	}
	wg.Wait()

	// Measurement epoch: 4 hits (warm users) and 4 misses (cold users)
	// in one batch.
	var mu sync.Mutex
	var hitLat, missLat []time.Duration
	for i := 0; i < s; i++ {
		u, isHit := warm[i/2], true
		if i%2 == 1 {
			u, isHit = fmt.Sprintf("cold-%d", i), false
		}
		wg.Add(1)
		go func(u string, isHit bool) {
			defer wg.Done()
			t0 := time.Now()
			if _, err := cl.Get(ctx, u); err != nil {
				t.Errorf("get %s: %v", u, err)
				return
			}
			lat := time.Since(t0)
			mu.Lock()
			if isHit {
				hitLat = append(hitLat, lat)
			} else {
				missLat = append(missLat, lat)
			}
			mu.Unlock()
		}(u, isHit)
	}
	wg.Wait()
	if len(hitLat) != 4 || len(missLat) != 4 {
		t.Fatalf("measured %d hits / %d misses, want 4/4", len(hitLat), len(missLat))
	}

	mean := func(ds []time.Duration) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}
	mh, mm := mean(hitLat), mean(missLat)
	// Hits waited for the epoch: they cannot undercut the LRS service
	// time their own epoch's misses paid.
	if mh < stubDelay/2 {
		t.Errorf("mean hit latency %v returned ahead of the epoch (LRS service time %v)", mh, stubDelay)
	}
	diff := mh - mm
	if diff < 0 {
		diff = -diff
	}
	if diff > stubDelay/2 {
		t.Errorf("hit/miss mean latency gap %v (hit %v, miss %v) — cache opens a timing channel wider than half the %v it hides",
			diff, mh, mm, stubDelay)
	}
	t.Logf("mean hit %v, mean miss %v, gap %v (LRS service time %v)", mh, mm, diff, stubDelay)
}
