package cluster_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/lrs/engine"
	"pprox/internal/reccache"
	"pprox/internal/rotation"
	"pprox/internal/workload"
)

// cache_e2e_test.go drives the in-enclave recommendation cache through
// the full in-process deployment: invalidation on rating POSTs, LRU
// eviction under EPC pressure, request coalescing, and the breach → flush
// → rotation discipline, all observed through the public surfaces
// (client API, stub counters, cache stats, auditor state).

// cacheSpec is the baseline encrypted stub deployment with the cache on.
// No shuffler: the cache publishes stats live, so the tests read exact
// counters without epoch choreography (epoch granularity has its own
// tests in internal/proxy and internal/reccache).
func cacheSpec() cluster.Spec {
	return cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		UseStub:      true,
		LRSFrontends: 1,
		Cache:        &reccache.Config{TTL: time.Minute},
	}
}

func TestCacheServesHitsAndPostInvalidates(t *testing.T) {
	d, err := cluster.Deploy(cacheSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(10 * time.Second)
	ctx := context.Background()

	first, err := cl.Get(ctx, "viewer")
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Get(ctx, "viewer")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached list differs from the original: %v vs %v", second, first)
	}
	if _, gets := d.Stub.Counts(); gets != 1 {
		t.Errorf("LRS saw %d gets after a hit, want 1 (hits must not reach the LRS)", gets)
	}

	// A rating POST changes the user's profile: the cached list is stale
	// by definition and must be dropped.
	if err := cl.Post(ctx, "viewer", "some-item", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "viewer"); err != nil {
		t.Fatal(err)
	}
	if _, gets := d.Stub.Counts(); gets != 2 {
		t.Errorf("LRS saw %d gets after POST invalidation, want 2 (the re-fetch)", gets)
	}
	st := d.RecCaches[0].Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
		t.Errorf("stats hits=%d misses=%d invalidations=%d, want 1/2/1", st.Hits, st.Misses, st.Invalidations)
	}
}

// TestCacheUnderZipfStream replays the user column of a scaled MovieLens
// slice — per-user activity follows the dataset's Zipf skew — as full
// shuffle epochs of gets. Every request whose user was asked in an
// earlier epoch must be a hit, and must not reach the LRS. Inside one
// epoch a repeated new user is a miss, but the stub's delay keeps the
// first fetch in flight, so the repeat joins it: the LRS sees each
// distinct user exactly once.
func TestCacheUnderZipfStream(t *testing.T) {
	const s, batches = 8, 40
	spec := cacheSpec()
	spec.Shuffle = s
	spec.ShuffleTimeout = time.Minute // only full epochs release
	spec.StubDelay = 50 * time.Millisecond
	spec.Audit = &audit.Config{}
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(10 * time.Second)
	events := workload.Generate(workload.ScaledMovieLensParams(0.01)).Events

	asked := map[string]bool{}
	var wantHits uint64
	for b := 0; b < batches; b++ {
		users := make([]string, s)
		for i := range users {
			users[i] = events[b*s+i].User
			if asked[users[i]] {
				wantHits++
			}
		}
		var wg sync.WaitGroup
		for _, u := range users {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if _, err := cl.Get(ctx, u); err != nil {
					t.Errorf("epoch %d: get: %v", b, err)
				}
			}()
		}
		wg.Wait()
		for _, u := range users {
			asked[u] = true
		}
	}

	const sent = s * batches
	// Stats publish at the IA's epoch flush.
	waitFor(t, "the last epoch's cache stats", func() bool {
		st := d.RecCaches[0].Stats()
		return st.Hits+st.Misses == sent
	})
	st := d.RecCaches[0].Stats()
	if st.Hits != wantHits || st.Misses != sent-wantHits {
		t.Errorf("hits=%d misses=%d, want %d/%d (a hit is a user asked in an earlier epoch)",
			st.Hits, st.Misses, wantHits, sent-wantHits)
	}
	_, gets := d.Stub.Counts()
	if gets != st.Misses-st.Coalesced {
		t.Errorf("LRS saw %d gets, want misses−coalesced = %d−%d", gets, st.Misses, st.Coalesced)
	}
	if gets != uint64(len(asked)) {
		t.Errorf("LRS saw %d gets for %d distinct users, want one each", gets, len(asked))
	}
	if got := d.Auditor.State(); got != audit.StateOK {
		t.Errorf("auditor state = %v, want ok", got)
	}
	t.Logf("sent=%d hits=%d misses=%d coalesced=%d distinct=%d lrs-gets=%d",
		sent, st.Hits, st.Misses, st.Coalesced, len(asked), gets)
}

func TestCacheEPCPressureEvictsNotFails(t *testing.T) {
	spec := cacheSpec()
	const pages = 4 // room for 4 one-page lists
	spec.Cache.MaxPages = pages
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(10 * time.Second)
	ctx := context.Background()

	// Three times the budget: every fill beyond the fourth must evict
	// the oldest entry, and no request may fail for it.
	const users = 12
	for i := 0; i < users; i++ {
		if _, err := cl.Get(ctx, fmt.Sprintf("crowd-%02d", i)); err != nil {
			t.Fatalf("get %d under EPC pressure: %v", i, err)
		}
	}
	st := d.RecCaches[0].Stats()
	if st.EvictionsLRU != uint64(users-pages) {
		t.Errorf("LRU evictions = %d, want %d", st.EvictionsLRU, users-pages)
	}
	if st.Entries > pages || st.Pages > pages {
		t.Errorf("resident %d entries / %d pages exceed the %d-page budget", st.Entries, st.Pages, pages)
	}
	// The survivors are the most recent: the last user is a hit, the
	// first is long gone.
	if _, err := cl.Get(ctx, fmt.Sprintf("crowd-%02d", users-1)); err != nil {
		t.Fatal(err)
	}
	if got := d.RecCaches[0].Stats().Hits; got != 1 {
		t.Errorf("hits = %d after re-getting the newest user, want 1", got)
	}
}

func TestCacheCoalescesConcurrentFetches(t *testing.T) {
	spec := cacheSpec()
	spec.StubDelay = 100 * time.Millisecond
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(10 * time.Second)

	// Six concurrent gets for the same cold user: one LRS fetch serves
	// them all.
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := cl.Get(ctx, "hot-user"); err != nil {
				t.Errorf("coalesced get: %v", err)
			}
		}()
	}
	wg.Wait()

	if _, gets := d.Stub.Counts(); gets != 1 {
		t.Errorf("LRS saw %d gets for %d concurrent requests, want 1 (singleflight)", gets, n)
	}
	if st := d.RecCaches[0].Stats(); st.Coalesced == 0 {
		t.Errorf("no coalesced fetches recorded: %+v", st)
	}
}

func TestCacheBreachDebtSettledByFlushOnly(t *testing.T) {
	// End-to-end wiring of the auditor's cache check: a breach puts the
	// deployment in violation, a rotation alone does NOT clear it while
	// the cache still holds pre-breach lists — only the wholesale flush
	// settles the debt.
	spec := cacheSpec()
	spec.Audit = &audit.Config{}
	d, err := cluster.Deploy(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(10 * time.Second)
	if _, err := cl.Get(context.Background(), "resident"); err != nil {
		t.Fatal(err)
	}

	d.Auditor.ObserveBreach("IA")
	if got := d.Auditor.State(); got != audit.StateViolated {
		t.Fatalf("state = %v after breach, want violated", got)
	}
	d.Auditor.ObserveRotation("IA")
	if got := d.Auditor.State(); got != audit.StateViolated {
		t.Fatalf("state = %v after rotation without flush, want violated (cache still holds pre-breach lists)", got)
	}
	if flushed := d.RecCaches[0].Flush(); flushed != 1 {
		t.Fatalf("flushed %d entries, want 1", flushed)
	}
	if got := d.Auditor.State(); got != audit.StateOK {
		t.Fatalf("state = %v after flush, want ok", got)
	}
}

func TestCompromiseCountermeasureFlushesDeployedCache(t *testing.T) {
	// Full breach response against the real engine: compromise the IA
	// enclave, run the countermeasure, and verify the deployed cache is
	// flushed before the keys rotate — then keeps serving.
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		LRSFrontends: 1,
		Cache:        &reccache.Config{TTL: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(10 * time.Second)
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		u := fmt.Sprintf("member-%d", i)
		if err := cl.Post(ctx, u, "a", ""); err != nil {
			t.Fatal(err)
		}
		if err := cl.Post(ctx, u, "b", ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Engine.TrainNow(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := cl.Get(ctx, fmt.Sprintf("member-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cache := d.RecCaches[0]
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d entries after warm-up, want 4", cache.Len())
	}

	fresh, err := engine.Open(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	srv := httptest.NewServer(engine.NewHandler(fresh))
	defer srv.Close()
	responder := rotation.NewResponder(func(layer rotation.Layer) error {
		if cache.Len() != 0 {
			t.Errorf("the IA layer rotates with %d cache entries left", cache.Len())
		}
		_, err := rotation.RotateKeys(layer, d.UAKeys, d.IAKeys, d.Engine.ForEachEvent, rotation.PostTo(srv.Client(), srv.URL))
		return err
	}, func(err error) { t.Errorf("responder: %v", err) })
	responder.AddCache(cache)
	gen := cache.Generation()
	e := d.IALayers[0].Enclave()
	e.Compromise()
	responder.Countermeasure(e)

	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after the breach response, want 0", cache.Len())
	}
	if cache.Generation() != gen+1 {
		t.Errorf("generation %d → %d across the breach response, want +1", gen, cache.Generation())
	}
	if st := cache.Stats(); st.Flushes != 1 || st.FlushedOut != 4 {
		t.Errorf("flush stats = %+v, want 1 flush covering 4 entries", st)
	}
	// The stack, left on the old LRS and keys, still serves and the
	// cache refills.
	if _, err := cl.Get(ctx, "member-0"); err != nil {
		t.Fatalf("get after breach response: %v", err)
	}
	if cache.Len() != 1 {
		t.Errorf("cache did not refill after the flush: %d entries", cache.Len())
	}
}
