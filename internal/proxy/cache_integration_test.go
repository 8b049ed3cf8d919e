package proxy_test

import (
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/reccache"
)

// cache_integration_test.go exercises the cached IA GET path end to end
// through real cryptography: hits decrypt to the same list the miss
// produced (re-encrypted under the new requester's temporary key), and
// the cache's observability surface only moves at shuffle-epoch
// boundaries.

func sumMetric(reg *metrics.Registry, fam string) float64 {
	total := 0.0
	for series, v := range reg.Snapshot() {
		if name, _ := metrics.ParseSeries(series); name == fam {
			total += v
		}
	}
	return total
}

func TestCachedGetEndToEnd(t *testing.T) {
	cache := reccache.New(reccache.Config{TTL: time.Minute})
	st := newStack(t, stackOptions{useStub: true, recCache: cache})
	ctx := ctxT(t)

	first, err := st.client.Get(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("miss returned no items")
	}
	// The hit is served from the cache's pseudonymized entry, sealed
	// under THIS request's fresh temporary key — the client must decrypt
	// the identical cleartext list.
	second, err := st.client.Get(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("hit decrypted to %v, want the original %v", second, first)
	}
	if stats := cache.Stats(); stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", stats)
	}
}

func TestCacheStatsExportFrozenMidEpoch(t *testing.T) {
	// The privacy property of the cache's observability: counters
	// advance only when a shuffle epoch is released, so a scraper
	// polling /metrics mid-epoch cannot tell which of the epoch's
	// requests hit the cache. The IA holds an epoch between its ia/get
	// crossing (where hits happen) and its release; a gated LRS keeps
	// the second epoch there while two of its misses wait for the LRS.
	cache := reccache.New(reccache.Config{TTL: time.Minute})
	var gated atomic.Bool
	gate := make(chan struct{})
	st := newStack(t, stackOptions{
		shuffleSize: 4, shuffleTimeout: 8 * time.Second,
		useStub: true, recCache: cache,
		lrsMiddleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if gated.Load() {
					<-gate
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	reg := metrics.NewRegistry()
	st.ia.RegisterMetrics(reg, "ia-0")
	ctx := ctxT(t)

	get := func(u string, wg *sync.WaitGroup) {
		defer wg.Done()
		if _, err := st.client.Get(ctx, u); err != nil {
			t.Errorf("get %s: %v", u, err)
		}
	}

	// Epoch 1: four misses fill the cache and release together.
	var warm sync.WaitGroup
	for _, u := range []string{"u0", "u1", "u2", "u3"} {
		warm.Add(1)
		go get(u, &warm)
	}
	warm.Wait()
	if got := sumMetric(reg, "pprox_reccache_misses_total"); got != 4 {
		t.Fatalf("misses exported after full epoch = %g, want 4", got)
	}

	// Epoch 2: two hits and two misses; the misses block on the LRS.
	gated.Store(true)
	var epoch sync.WaitGroup
	for _, u := range []string{"u0", "u1", "u4", "u5"} {
		epoch.Add(1)
		go get(u, &epoch)
	}
	deadline := time.Now().Add(3 * time.Second)
	for cache.LiveStats().Hits < 2 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight hits never reached the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The scrape mid-epoch must not see them.
	if got := sumMetric(reg, "pprox_reccache_hits_total"); got != 0 {
		t.Errorf("hits exported mid-epoch = %g, want 0 (export must be epoch-granular)", got)
	}

	// The LRS answers; the epoch releases and publishes.
	close(gate)
	epoch.Wait()
	if got := sumMetric(reg, "pprox_reccache_hits_total"); got != 2 {
		t.Errorf("hits exported after release = %g, want 2", got)
	}
}
