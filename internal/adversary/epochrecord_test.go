package adversary_test

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/metrics"
	"pprox/internal/proxy"
)

// TestTraceExportCannotLinkRequests extends the §6.2 adversary with the
// proxies' epoch-record log (the -trace-log export): on top of the edge
// and LRS network taps, it obtains every record both layers write (a
// leaked telemetry pipeline, the realistic worst case for observability
// data). The claim under test is that the log is anonymized at least as
// aggressively as the traffic: a record is one epoch's stage-histogram
// bucket counts, so the adversary has no per-request handle and its
// linking accuracy stays at the shuffler's 1/S bound instead of climbing
// back toward 1.
func TestTraceExportCannotLinkRequests(t *testing.T) {
	eachKeyMaterial(t, testTraceExportCannotLinkRequests)
}

func testTraceExportCannotLinkRequests(t *testing.T, km keyMaterial) {
	const s = 8
	const batches = 8
	st := newTappedStack(t, km, s)
	var mu sync.Mutex
	var recs []proxy.EpochRecord
	for name, l := range map[string]*proxy.Layer{"ua-0": st.ua, "ia-0": st.ia} {
		l.RegisterMetrics(metrics.NewRegistry(), name)
		l.SetEpochObserver(func(r proxy.EpochRecord) {
			mu.Lock()
			recs = append(recs, r)
			mu.Unlock()
		})
	}
	ctx := context.Background()

	var users []string
	var edge []adversary.Event
	for b := 0; b < batches; b++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			u := fmt.Sprintf("victim-%d-%d", b, i)
			users = append(users, u)
			edge = append(edge, adversary.Event{T: time.Now(), Link: "client→ua", Label: u})
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if err := st.client.Post(ctx, u, "sensitive-item", ""); err != nil {
					t.Errorf("post: %v", err)
				}
			}(u)
			time.Sleep(2 * time.Millisecond)
		}
		wg.Wait()
	}
	// The final partial records, as Layer.Close writes them.
	st.ua.Record()
	st.ia.Record()

	n := s * batches
	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != n {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), n)
	}
	mu.Lock()
	defer mu.Unlock()

	// The log is operationally useful: it describes every request's
	// passage through each hop's pipeline stages (the UA forwards each
	// epoch as one frame)...
	byStage := make(map[string]uint64)
	for _, r := range recs {
		for stage, buckets := range r.Stages {
			for _, c := range buckets {
				byStage[r.Node+"/"+stage] += c
			}
		}
	}
	if got := byStage["ua-0/"+proxy.StageForward]; got != batches {
		t.Errorf("UA forwards = %d, want one per epoch, %d", got, batches)
	}
	if got := byStage["ia-0/"+proxy.StageForward]; got != uint64(n) {
		t.Errorf("IA forwards = %d, want %d", got, n)
	}

	// ...but is free of per-request handles. First: no join keys. A
	// conventional tracer assigns one trace ID per request, reused across
	// stages and hops — joining on it reconstructs each request's path
	// and defeats the shuffler outright. A record carries no ID, no sum
	// and no timestamp: exactly node, epoch, batch and stage counts.
	for _, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(raw, &keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"node", "epoch", "batch", "stages"} {
			delete(keys, k)
		}
		if len(keys) != 0 {
			t.Fatalf("record %s carries more than node, epoch, batch and stages", raw)
		}
	}

	// Second: no fine-grained timing. Every count sits on a coarse bucket
	// bound (shared by many requests), never a raw duration.
	bounds := map[string]bool{"+Inf": true}
	for _, b := range metrics.DefBuckets {
		bounds[strconv.FormatFloat(b, 'g', -1, 64)] = true
	}
	for _, r := range recs {
		for _, buckets := range r.Stages {
			for le := range buckets {
				if !bounds[le] {
					t.Fatalf("record carries a count at %q, not a bucket bound", le)
				}
			}
		}
	}

	// Third, the quantitative attack. The strongest remaining use of the
	// log is to treat within-epoch structure as a proxy for within-batch
	// processing order. Expand the UA records' shuffle_wait counts in the
	// order the log lines list them (encoding/json sorts map keys) and cut
	// the stream into epochs of S. Within an epoch, the k-th listed wait
	// is believed to be the k-th LRS arrival — a naive log lists requests
	// in completion order, which IS the shuffled order the LRS sees — and
	// its rank, longest first, its edge arrival: in a FIFO batch the
	// earliest arrival waits longest. Bucket counts have no order or
	// identity within an epoch, so the pairing reduces to noise and
	// accuracy stays ≈ 1/S.
	var waits []float64
	for _, r := range recs {
		if r.Node != "ua-0" {
			continue
		}
		buckets := r.Stages[proxy.StageShuffleWait]
		les := make([]string, 0, len(buckets))
		for le := range buckets {
			les = append(les, le)
		}
		slices.Sort(les)
		for _, le := range les {
			d, err := strconv.ParseFloat(le, 64) // "+Inf" parses as +Inf
			if err != nil {
				t.Fatal(err)
			}
			for c := buckets[le]; c > 0; c-- {
				waits = append(waits, d)
			}
		}
	}
	if len(waits) != n {
		t.Fatalf("UA shuffle_wait counts = %d, want %d", len(waits), n)
	}
	truth := st.truth(t, users)
	acc := adversary.Accuracy(rankAttack(waits, edge, lrs, s), truth)
	if acc > 0.4 {
		t.Errorf("record-augmented attack accuracy = %.3f, want ≈ 1/S = %.3f — "+
			"the epoch records re-opened the timing channel", acc, 1.0/s)
	}
	t.Logf("record-augmented attack accuracy = %.3f (theory 1/S = %.3f, %d records leaked)",
		acc, 1.0/s, len(recs))

	// The attack has teeth: against a log listing each request's exact
	// wait in egress order, it links every request.
	edgeAt := make(map[string]int, n)
	for i, e := range edge {
		edgeAt[e.Label] = i
	}
	userOf := make(map[string]string, n)
	for u, p := range truth {
		userOf[p] = u
	}
	leaky := make([]float64, n)
	for j, e := range lrs {
		leaky[j] = float64(n - edgeAt[userOf[e.Label]])
	}
	if acc := adversary.Accuracy(rankAttack(leaky, edge, lrs, s), truth); acc < 0.9 {
		t.Errorf("attack on an order-leaking log: accuracy = %.3f, want ≈ 1", acc)
	}
}

// rankAttack pairs, within each epoch of s consecutive waits, the k-th
// listed wait's LRS arrival with the edge arrival of its rank by wait,
// longest first.
func rankAttack(waits []float64, edge, lrs []adversary.Event, s int) []adversary.Guess {
	var guesses []adversary.Guess
	for off := 0; off+s <= len(waits); off += s {
		block := waits[off : off+s]
		byWait := make([]int, s) // listed positions, longest wait first
		for k := range byWait {
			byWait[k] = k
		}
		slices.SortStableFunc(byWait, func(a, b int) int { return cmp.Compare(block[b], block[a]) })
		for rank, k := range byWait {
			guesses = append(guesses, adversary.Guess{Source: edge[off+rank].Label, Target: lrs[off+k].Label})
		}
	}
	return guesses
}
