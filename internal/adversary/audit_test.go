package adversary_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/audit"
)

// runSchedule drives the tapped stack with one batch per entry — a batch
// of size b is b concurrent posts, waited to completion, so each entry
// becomes exactly one UA shuffle epoch (full batches flush on occupancy,
// short ones on the timer). It returns the users in arrival order and the
// adversary's edge observations.
func runSchedule(t *testing.T, st *tappedStack, schedule []int) (users []string, edge []adversary.Event) {
	t.Helper()
	ctx := context.Background()
	for b, size := range schedule {
		var wg sync.WaitGroup
		for i := 0; i < size; i++ {
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
	return users, edge
}

// TestAuditorFlagsExactlyTheLinkableEpochs is the auditor's soundness and
// completeness check: it must flag an epoch if and only if the measured
// correlation accuracy inside that epoch exceeds the 1/S bound the
// shuffler promises. Full epochs keep the adversary at ≈ 1/S; an epoch
// the flush timer releases with a single occupant is linked with
// accuracy 1 (a random permutation of one element has one fixed point),
// and the auditor must flag exactly those.
func TestAuditorFlagsExactlyTheLinkableEpochs(t *testing.T) {
	eachKeyMaterial(t, testAuditorFlagsExactlyTheLinkableEpochs)
}

func testAuditorFlagsExactlyTheLinkableEpochs(t *testing.T, km keyMaterial) {
	const s = 8
	// Two singleton epochs in a stream of full ones — released by the
	// flush timer, each is perfectly linkable. The stack's timeout is
	// long enough that full batches always flush on occupancy, even
	// under race-detector slowdown: a timer split would fabricate
	// phantom epochs and break every schedule-aligned assertion here.
	schedule := []int{s, s, 1, s, 1, s}
	st := newTappedStack(t, km, s)
	aud := audit.New(audit.Config{TargetS: s})
	st.ua.SetEpochObserver(func(batch int) { aud.ObserveEpoch("ua-0", batch) })

	users, edge := runSchedule(t, st, schedule)
	total := 0
	for _, b := range schedule {
		total += b
	}
	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != total {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), total)
	}
	truth := st.truth(t, users)

	rep := aud.Report()
	if len(rep.Nodes) != 1 || rep.Nodes[0].Node != "ua-0" {
		t.Fatalf("report nodes = %+v, want exactly ua-0", rep.Nodes)
	}
	recs := rep.Nodes[0].RecentEpochs
	if len(recs) != len(schedule) {
		t.Fatalf("auditor recorded %d epochs, want %d", len(recs), len(schedule))
	}

	// Per epoch: the adversary segments both taps at the epoch boundary
	// (requests complete only after their epoch flushes, so the streams
	// are epoch-aligned) and correlates within it.
	var fullGuesses []adversary.Guess
	off := 0
	for i, size := range schedule {
		if recs[i].Batch != size {
			t.Fatalf("epoch %d: auditor saw batch %d, schedule sent %d", i, recs[i].Batch, size)
		}
		guesses := adversary.CorrelateInOrder(edge[off:off+size], lrs[off:off+size])
		acc := adversary.Accuracy(guesses, truth)
		flagged := recs[i].Underfilled

		if wantFlag := size < s; flagged != wantFlag {
			t.Errorf("epoch %d (batch %d): flagged=%v, want %v", i, size, flagged, wantFlag)
		}
		if flagged {
			// Soundness: every flagged epoch is genuinely linkable.
			if acc != 1.0 {
				t.Errorf("epoch %d flagged but measured accuracy %.3f, want 1.0 — "+
					"a false alarm", i, acc)
			}
		} else {
			fullGuesses = append(fullGuesses, guesses...)
		}
		off += size
	}
	// Completeness: every unflagged epoch holds the 1/S bound (scored in
	// aggregate; a single epoch of 8 is too noisy to bound alone).
	if acc := adversary.Accuracy(fullGuesses, truth); acc > 0.4 {
		t.Errorf("unflagged epochs linked with accuracy %.3f, want ≈ 1/S = %.3f — "+
			"the auditor missed a violation", acc, 1.0/s)
	}
	// Two under-filled epochs out of six burns every window under the
	// default 99% objective: the stream as a whole must be in violation.
	if st := aud.State(); st != audit.StateViolated {
		t.Errorf("auditor state = %v after linkable epochs, want violated", st)
	}
}

// TestPrivacyReportGrantsNoLinkingAdvantage extends the leaked-telemetry
// adversary of TestTraceExportCannotLinkRequests to the /privacy
// endpoint: the adversary obtains every node's full privacy report. The
// payload must be epoch-granular only — batch sizes and counters, never
// identifiers — and epoch sizes are something the network adversary
// already observes, so the report must add zero linking advantage.
func TestPrivacyReportGrantsNoLinkingAdvantage(t *testing.T) {
	eachKeyMaterial(t, testPrivacyReportGrantsNoLinkingAdvantage)
}

func testPrivacyReportGrantsNoLinkingAdvantage(t *testing.T, km keyMaterial) {
	const s = 8
	schedule := []int{s, s, s, s}
	st := newTappedStack(t, km, s)
	aud := audit.New(audit.Config{TargetS: s})
	st.ua.SetEpochObserver(func(batch int) { aud.ObserveEpoch("ua-0", batch) })

	users, edge := runSchedule(t, st, schedule)
	lrs := st.rec.Events("ia→lrs")
	truth := st.truth(t, users)

	// The leak: the raw /privacy response body.
	rec := httptest.NewRecorder()
	rec.Body.Reset()
	req := httptest.NewRequest("GET", audit.PrivacyPath, nil)
	aud.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("GET %s: status %d", audit.PrivacyPath, rec.Code)
	}
	body := rec.Body.String()

	// No identifier — raw or pseudonymous — may appear in the payload.
	for _, u := range users {
		if strings.Contains(body, u) {
			t.Fatalf("privacy report leaks raw user ID %q", u)
		}
	}
	if strings.Contains(body, "sensitive-item") {
		t.Fatal("privacy report leaks a raw item ID")
	}
	for u, pseudo := range truth {
		if strings.Contains(body, pseudo) {
			t.Fatalf("privacy report leaks the pseudonym of %q", u)
		}
	}

	// Quantitative zero-advantage: the report's only linkage-relevant
	// content is the per-epoch batch size, so the report-augmented
	// attack (segment at the reported epoch boundaries, correlate
	// within each) must guess exactly as the report-free attack does —
	// and stay at the 1/S bound.
	baseline := adversary.CorrelateInOrder(edge, lrs)
	rep := aud.Report()
	var augmented []adversary.Guess
	off := 0
	for _, e := range rep.Nodes[0].RecentEpochs {
		if off+e.Batch > len(lrs) {
			t.Fatalf("reported epochs cover %d messages, tap saw %d", off+e.Batch, len(lrs))
		}
		augmented = append(augmented,
			adversary.CorrelateInOrder(edge[off:off+e.Batch], lrs[off:off+e.Batch])...)
		off += e.Batch
	}
	if len(augmented) != len(baseline) {
		t.Fatalf("augmented attack made %d guesses, baseline %d", len(augmented), len(baseline))
	}
	for i := range augmented {
		if augmented[i] != baseline[i] {
			t.Fatalf("guess %d: report changed the adversary's answer %v → %v — "+
				"the payload carries sub-epoch information", i, baseline[i], augmented[i])
		}
	}
	if acc := adversary.Accuracy(augmented, truth); acc > 0.4 {
		t.Errorf("report-augmented accuracy = %.3f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
}
