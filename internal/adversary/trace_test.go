package adversary_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/proxy"
	"pprox/internal/trace"
)

// TestTraceExportCannotLinkRequests extends the §6.2 adversary with the
// trace telemetry: on top of the edge and LRS network taps, it obtains
// the proxies' full trace export (a leaked telemetry pipeline, the
// realistic worst case for observability data). The claim under test is
// that the trace is anonymized at least as aggressively as the traffic:
// epoch-granular, coarse-duration, randomly-ordered records give the
// adversary no per-request handle, so its linking accuracy stays at the
// shuffler's 1/S bound instead of climbing back toward 1.
func TestTraceExportCannotLinkRequests(t *testing.T) {
	eachKeyMaterial(t, testTraceExportCannotLinkRequests)
}

func testTraceExportCannotLinkRequests(t *testing.T, km keyMaterial) {
	const s = 8
	const batches = 8
	st := newTappedStack(t, km, s)
	col := trace.NewCollector()
	st.ua.SetTracer(trace.New("ua-0", col.Sink(), nil))
	st.ia.SetTracer(trace.New("ia-0", col.Sink(), nil))
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
	// Flush the partial final epochs, as Layer.Close would.
	st.ua.Tracer().AdvanceEpoch()
	st.ia.Tracer().AdvanceEpoch()

	n := s * batches
	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != n {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), n)
	}
	recs := col.Records()

	// The export is operationally useful: it describes every request's
	// passage through each hop's pipeline stages (the UA forwards each
	// epoch as one frame)...
	byStage := make(map[string]int)
	for _, r := range recs {
		byStage[r.Node+"/"+r.Stage]++
	}
	if got := byStage["ua-0/"+proxy.StageForward]; got != batches {
		t.Errorf("UA forward spans = %d, want one per epoch, %d", got, batches)
	}
	if got := byStage["ia-0/"+proxy.StageForward]; got != n {
		t.Errorf("IA forward spans = %d, want %d", got, n)
	}

	// ...but is free of per-request handles. First: no join keys. A
	// conventional tracer assigns one trace ID per request, reused across
	// stages and hops — joining on it reconstructs each request's path
	// and defeats the shuffler outright. Here every span ID must be
	// fresh, so the join yields nothing.
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("span ID %s appears twice: a cross-stage join key leaked", r.ID)
		}
		seen[r.ID] = true
	}

	// Second: no fine-grained timing. Every duration must sit on a
	// coarse bucket bound (shared by many requests), never a raw value.
	bounds := make(map[float64]bool, len(trace.DefBuckets)+1)
	for _, b := range trace.DefBuckets {
		bounds[b] = true
	}
	bounds[trace.DefBuckets[len(trace.DefBuckets)-1]*10] = true
	for _, r := range recs {
		if !bounds[r.DurationLE] {
			t.Fatalf("record carries non-coarsened duration %v", r.DurationLE)
		}
	}

	// Third, the quantitative attack. The strongest remaining use of the
	// trace is to treat within-epoch structure as a proxy for
	// within-batch processing order: rank each epoch's shuffle_wait
	// spans (longest-waiting first — in a FIFO batch the earliest
	// arrival waits longest, so with exact durations this ordering would
	// recover arrival order) and pair the k-th ranked span overall with
	// the k-th LRS arrival. Coarse buckets plus random export order
	// reduce the ranking to noise, so accuracy stays ≈ 1/S.
	// A span's export position doubles as the believed egress position: a
	// naive tracer flushes spans in completion order, and completion
	// order of the batch IS the shuffled order the LRS sees. Against such
	// a tracer this attack recovers arrival→egress exactly; here both
	// signals are destroyed.
	type posRec struct {
		r   trace.Record
		pos int // export position within the full stream
	}
	var uaWaits []posRec
	for _, r := range recs {
		if r.Node == "ua-0" && r.Stage == proxy.StageShuffleWait {
			uaWaits = append(uaWaits, posRec{r: r, pos: len(uaWaits)})
		}
	}
	if len(uaWaits) != n {
		t.Fatalf("UA shuffle_wait spans = %d, want %d", len(uaWaits), n)
	}
	sort.SliceStable(uaWaits, func(i, j int) bool {
		if uaWaits[i].r.Epoch != uaWaits[j].r.Epoch {
			return uaWaits[i].r.Epoch < uaWaits[j].r.Epoch
		}
		return uaWaits[i].r.DurationLE > uaWaits[j].r.DurationLE
	})
	guesses := make([]adversary.Guess, n)
	for k, w := range uaWaits {
		guesses[k] = adversary.Guess{Source: edge[k].Label, Target: lrs[w.pos].Label}
	}
	acc := adversary.Accuracy(guesses, st.truth(t, users))
	if acc > 0.4 {
		t.Errorf("trace-augmented attack accuracy = %.3f, want ≈ 1/S = %.3f — "+
			"the trace export re-opened the timing channel", acc, 1.0/s)
	}
	t.Logf("trace-augmented attack accuracy = %.3f (theory 1/S = %.3f, %d records leaked)",
		acc, 1.0/s, len(recs))
}
