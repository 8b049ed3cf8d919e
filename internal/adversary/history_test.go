package adversary_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
)

func TestHistoryAttackIsolatesRepeatedTarget(t *testing.T) {
	// §6.3: diverse decoys churn across windows, the target persists.
	rng := rand.New(rand.NewSource(1))
	const s = 10
	const windowsN = 8
	target := "pseudo-target"
	population := make([]string, 500)
	for i := range population {
		population[i] = fmt.Sprintf("pseudo-%03d", i)
	}
	var windows [][]string
	for w := 0; w < windowsN; w++ {
		window := []string{target}
		for len(window) < s {
			window = append(window, population[rng.Intn(len(population))])
		}
		windows = append(windows, window)
	}
	surviving := adversary.HistoryAttack(windows)
	if len(surviving) != 1 || surviving[0] != target {
		t.Errorf("history attack isolated %v, want exactly the target", surviving)
	}
}

func TestHistoryAttackDefeatedByConstantCohort(t *testing.T) {
	// If the same users always share the target's batches (e.g. very
	// low-traffic application, §6.3's problem case inverted), the
	// intersection never shrinks below the cohort — the attack stalls.
	cohort := []string{"a", "b", "c", "d", "target"}
	windows := [][]string{cohort, cohort, cohort, cohort}
	surviving := adversary.HistoryAttack(windows)
	if len(surviving) != len(cohort) {
		t.Errorf("constant cohort shrank to %v", surviving)
	}
}

func TestHistoryAttackEmptyInput(t *testing.T) {
	if got := adversary.HistoryAttack(nil); got != nil {
		t.Errorf("empty input yielded %v", got)
	}
}

func TestHistoryAttackEndToEnd(t *testing.T) { eachKeyMaterial(t, testHistoryAttackEndToEnd) }

func testHistoryAttackEndToEnd(t *testing.T, km keyMaterial) {
	// The full §6.3 scenario against the real stack: the victim posts in
	// every shuffle batch among churning decoys; the adversary taps the
	// LRS link, slices windows, and intersects. With enough windows the
	// victim's pseudonym is isolated — demonstrating exactly the
	// residual risk the paper documents (shuffling alone does not
	// protect heavy repeat users against a patient adversary).
	const s = 8
	const rounds = 6
	st := newTappedStack(t, km, s)
	ctx := context.Background()

	var victimIngress []adversary.Event
	decoy := 0
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		victimIngress = append(victimIngress, adversary.Event{T: time.Now(), Label: "victim"})
		post := func(u string) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := st.client.Post(ctx, u, "sensitive", ""); err != nil {
					t.Errorf("post: %v", err)
				}
			}()
			time.Sleep(time.Millisecond)
		}
		post("victim")
		for i := 0; i < s-1; i++ {
			decoy++
			post(fmt.Sprintf("decoy-%04d", decoy))
		}
		wg.Wait()
	}

	egress := st.rec.Events("ia→lrs")
	windows := adversary.WindowsFromTrace(egress, victimIngress, s)
	surviving := adversary.HistoryAttack(windows)

	victimPseudo, err := ppcrypto.Pseudonymize(st.uaKeys.Permanent, "victim")
	if err != nil {
		t.Fatal(err)
	}
	want := message.Encode64(victimPseudo)

	found := false
	for _, p := range surviving {
		if p == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim pseudonym not among survivors %d — windowing broken", len(surviving))
	}
	if len(surviving) > 2 {
		t.Errorf("history attack left %d candidates after %d rounds, expected the victim isolated (±1)", len(surviving), rounds)
	}
	t.Logf("history attack: %d candidate(s) after %d windows of size %d", len(surviving), rounds, s)
}
