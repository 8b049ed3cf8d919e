package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pprox/internal/lrs/store"
)

// seedCrossIndicators builds a world where VIEW behaviour predicts
// primary access: users who view "trailer-x" go on to access "movie-x".
func seedCrossIndicators(e *Engine) {
	for i := 0; i < 15; i++ {
		u := fmt.Sprintf("xfan-%d", i)
		e.InsertTypedEvent(u, "trailer-x", "", "view")
		e.InsertTypedEvent(u, "movie-x", "", "")
	}
	for i := 0; i < 15; i++ {
		u := fmt.Sprintf("yfan-%d", i)
		e.InsertTypedEvent(u, "trailer-y", "", "view")
		e.InsertTypedEvent(u, "movie-y", "", "")
	}
}

func TestRecommendFromSecondaryIndicatorsOnly(t *testing.T) {
	e := New(DefaultConfig())
	seedCrossIndicators(e)
	// probe has only VIEWED trailer-x — no primary history at all.
	e.InsertTypedEvent("probe", "trailer-x", "", "view")
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}

	recs := e.Recommend("probe", 2)
	if len(recs) == 0 {
		t.Fatal("no recommendations from secondary history")
	}
	if recs[0] != "movie-x" {
		t.Errorf("recs = %v, want movie-x first (cross-occurrence view→access)", recs)
	}
}

func TestSecondaryHistoryDoesNotBlacklist(t *testing.T) {
	e := New(DefaultConfig())
	seedCrossIndicators(e)
	// Viewing a trailer for an item must not prevent recommending the
	// item itself; only primary interactions blacklist.
	e.InsertTypedEvent("probe", "trailer-x", "", "view")
	e.InsertTypedEvent("probe", "movie-y", "", "") // primary: seen
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	recs := e.Recommend("probe", 5)
	sawX, sawY := false, false
	for _, r := range recs {
		if r == "movie-x" {
			sawX = true
		}
		if r == "movie-y" {
			sawY = true
		}
	}
	if !sawX {
		t.Errorf("recs %v missing movie-x despite the view signal", recs)
	}
	if sawY {
		t.Errorf("recs %v include the primary-seen movie-y", recs)
	}
}

func TestPrimaryOutweighsSecondary(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg)
	// Two disjoint signals of equal statistical strength: a primary
	// co-occurrence toward "strong" and a view cross-occurrence toward
	// "weak". With SecondaryBoost < 1 the primary one must rank first.
	for i := 0; i < 15; i++ {
		u := fmt.Sprintf("p-%d", i)
		e.InsertTypedEvent(u, "anchor", "", "")
		e.InsertTypedEvent(u, "strong", "", "")
	}
	for i := 0; i < 15; i++ {
		u := fmt.Sprintf("v-%d", i)
		e.InsertTypedEvent(u, "anchor-view", "", "view")
		e.InsertTypedEvent(u, "weak", "", "")
	}
	for i := 0; i < 10; i++ {
		e.InsertTypedEvent(fmt.Sprintf("bg-%d", i), "noise", "", "")
	}
	e.InsertTypedEvent("probe", "anchor", "", "")
	e.InsertTypedEvent("probe", "anchor-view", "", "view")
	if err := e.TrainNow(); err != nil {
		t.Fatal(err)
	}
	recs := e.Recommend("probe", 2)
	if len(recs) < 2 {
		t.Fatalf("recs = %v", recs)
	}
	if recs[0] != "strong" {
		t.Errorf("recs = %v, want the primary-indicator item first", recs)
	}
}

func TestTypedEventsStoredAndVisible(t *testing.T) {
	e := New(DefaultConfig())
	e.InsertTypedEvent("u", "i", "p", "like")
	found := false
	e.ForEachEvent(func(d store.Document) {
		if d.Fields["type"] == "like" && d.Fields["item"] == "i" {
			found = true
		}
	})
	if !found {
		t.Error("typed event not persisted with its indicator type")
	}
}

// TestRandomizedPseudonymsDestroyProfiles is the DESIGN.md §4 ablation
// explaining WHY PProx uses deterministic encryption for pseudonyms
// (§4.1): if each post carried a fresh randomized pseudonym, the LRS
// could never link two interactions of the same user — profiles collapse
// to singletons and collaborative filtering learns nothing.
func TestRandomizedPseudonymsDestroyProfiles(t *testing.T) {
	deterministic := New(DefaultConfig())
	randomized := New(DefaultConfig())

	// Same underlying behaviour, two pseudonymization disciplines.
	serial := 0
	for i := 0; i < 15; i++ {
		user := fmt.Sprintf("u%d", i)
		for _, item := range []string{"a", "b"} {
			deterministic.InsertEvent("stable-"+user, item, "")
			serial++
			randomized.InsertEvent(fmt.Sprintf("random-%s-%d", user, serial), item, "")
		}
	}
	for i := 0; i < 6; i++ {
		deterministic.InsertEvent(fmt.Sprintf("stable-s%d", i), "c", "")
		serial++
		randomized.InsertEvent(fmt.Sprintf("random-s%d-%d", i, serial), "c", "")
	}
	deterministic.InsertEvent("stable-probe", "a", "")
	randomized.InsertEvent(fmt.Sprintf("random-probe-%d", serial+1), "a", "")

	if err := deterministic.TrainNow(); err != nil {
		t.Fatal(err)
	}
	if err := randomized.TrainNow(); err != nil {
		t.Fatal(err)
	}

	// Deterministic pseudonyms: the model learned a↔b.
	if recs := deterministic.Recommend("stable-probe", 1); len(recs) == 0 || recs[0] != "b" {
		t.Errorf("deterministic pseudonyms: recs = %v, want [b]", recs)
	}
	// Randomized pseudonyms: every profile is a singleton, so no
	// co-occurrence can ever be observed.
	m := randomized.model.Load()
	if len(m.Primary.Indicators) != 0 {
		t.Errorf("randomized pseudonyms still produced %d correlations — ablation broken", len(m.Primary.Indicators))
	}
}

// TestRecommendIsDeterministicAcrossEventTypes: a get's clauses are the
// order its scores are summed in, so they must not follow a map's
// iteration order. With two secondary types, near-tied items swapped
// places between two calls for the same user on the same model.
func TestRecommendIsDeterministicAcrossEventTypes(t *testing.T) {
	types := []string{"", "", "view", "buy"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(DefaultConfig())
		for i := 0; i < 400; i++ {
			user := fmt.Sprintf("u%d", rng.Intn(25))
			item := fmt.Sprintf("i%d", rng.Intn(15))
			e.InsertTypedEvent(user, item, "", types[rng.Intn(len(types))])
		}
		if err := e.TrainNow(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 25; u++ {
			user := fmt.Sprintf("u%d", u)
			first := e.Recommend(user, 20)
			for call := 0; call < 20; call++ {
				if again := e.Recommend(user, 20); !reflect.DeepEqual(again, first) {
					t.Errorf("seed %d: Recommend(%s) gave %v, then %v", seed, user, first, again)
					break
				}
			}
		}
	}
}
