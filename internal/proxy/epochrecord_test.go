package proxy_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"pprox/internal/metrics"
	"pprox/internal/proxy"
)

// TestEpochRecordsAreTheStageHistograms drives several epochs through both
// layers and closes them. Each layer numbers its records 1, 2, … with one
// per released epoch and a final Batch-0 record from Close; summed over all
// of them, every stage's bucket counts equal its pprox_proxy_stage_seconds
// buckets on /metrics; and a record holds exactly node, epoch, batch and
// stages. The record is the histograms, and nothing more.
func TestEpochRecordsAreTheStageHistograms(t *testing.T) {
	const s, epochs = 4, 3
	st := newStack(t, stackOptions{useStub: true, shuffleSize: s, shuffleTimeout: time.Second})
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	recs := make(map[string][]proxy.EpochRecord)
	for name, l := range map[string]*proxy.Layer{"ua-0": st.ua, "ia-0": st.ia} {
		l.RegisterMetrics(reg, name)
		l.SetEpochObserver(func(r proxy.EpochRecord) {
			mu.Lock()
			recs[r.Node] = append(recs[r.Node], r)
			mu.Unlock()
		})
	}
	ctx := ctxT(t)
	for e := 0; e < epochs; e++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if _, err := st.client.Get(ctx, u); err != nil {
					t.Errorf("get: %v", err)
				}
			}(fmt.Sprintf("user-%d-%d", e, i))
		}
		wg.Wait()
	}
	// A response can reach the client before its handler has observed
	// the serve stage; Close runs once no request is in flight, as it
	// does behind a stopped listener.
	for st.ua.InFlight() > 0 || st.ia.InFlight() > 0 {
		time.Sleep(time.Millisecond)
	}
	st.ua.Close()
	st.ia.Close()

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	type cum struct {
		le    string
		bound float64
		n     float64
	}
	scraped := make(map[string][]cum) // node/stage → cumulative buckets
	for series, v := range metrics.ParseExposition(rec.Body.String()) {
		name, labels := metrics.ParseSeries(series)
		if name != "pprox_proxy_stage_seconds_bucket" {
			continue
		}
		bound, err := strconv.ParseFloat(labels["le"], 64)
		if err != nil {
			t.Fatal(err)
		}
		k := labels["node"] + "/" + labels["stage"]
		scraped[k] = append(scraped[k], cum{labels["le"], bound, v})
	}
	if len(scraped) == 0 {
		t.Fatal("no stage buckets on /metrics")
	}

	mu.Lock()
	defer mu.Unlock()
	summed := make(map[string]map[string]uint64) // node/stage → le → count
	for node, rs := range recs {
		if len(rs) != epochs+1 {
			t.Fatalf("%s wrote %d records, want %d epochs and Close's", node, len(rs), epochs)
		}
		for i, r := range rs {
			want := s
			if i == epochs {
				want = 0
			}
			if r.Epoch != uint64(i+1) || r.Batch != want {
				t.Errorf("%s record %d: epoch %d batch %d, want epoch %d batch %d", node, i, r.Epoch, r.Batch, i+1, want)
			}
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(raw, &keys); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"node", "epoch", "batch", "stages"} {
				if _, ok := keys[k]; !ok {
					t.Errorf("record %s has no %q", raw, k)
				}
				delete(keys, k)
			}
			if len(keys) != 0 {
				t.Errorf("record %s carries more than node, epoch, batch and stages", raw)
			}
			for stage, buckets := range r.Stages {
				k := node + "/" + stage
				if summed[k] == nil {
					summed[k] = make(map[string]uint64)
				}
				for le, c := range buckets {
					summed[k][le] += c
				}
			}
		}
	}
	for k, buckets := range scraped {
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].bound < buckets[j].bound })
		var below float64
		for _, b := range buckets {
			if got, want := summed[k][b.le], uint64(b.n-below); got != want {
				t.Errorf("%s le=%s: records sum to %d, /metrics holds %d", k, b.le, got, want)
			}
			below = b.n
			delete(summed[k], b.le)
		}
		if len(summed[k]) != 0 {
			t.Errorf("%s: records hold buckets /metrics lacks: %v", k, summed[k])
		}
		delete(summed, k)
	}
	if len(summed) != 0 {
		t.Errorf("records hold stages /metrics lacks: %v", summed)
	}
}
