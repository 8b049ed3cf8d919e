package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"pprox/internal/adversary"
	"pprox/internal/audit"
	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/rotation"
)

// TestRotationThroughTheRESTFrontDoor runs the breach response in
// TestUnmodifiedRESTLRSBehindTheProxies's stack, for a UA and an IA
// breach: the old LRS's events are replayed into a fresh LRS that is
// nothing but the engine's REST handler, and a fresh UA and IA are
// provisioned from the rotation's keys. The test requires that the
// pre-breach loot de-pseudonymizes nothing the fresh LRS holds; that
// every event arrives exactly once; that the fresh LRS recommends what the
// old one did, mapped through the rotation; that the auditor stays
// violated until the replay succeeds; that the old stack keeps serving
// after the breach response; that fresh clients get their
// answers through the fresh enclaves; and that the leaked link key opens
// none of the fresh UA→IA slots.
func TestRotationThroughTheRESTFrontDoor(t *testing.T) {
	for _, layer := range []rotation.Layer{rotation.LayerUA, rotation.LayerIA} {
		t.Run(layer.String(), func(t *testing.T) { testRotationThroughTheRESTFrontDoor(t, layer) })
	}
}

func testRotationThroughTheRESTFrontDoor(t *testing.T, layer rotation.Layer) {
	const s, users, postRounds, items = 4, 8, 6, 5
	ua, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	ia, err := proxy.NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.PairLinkKey(ua, ia); err != nil {
		t.Fatal(err)
	}
	name := func(u int) string { return fmt.Sprintf("rest-user-%d", u) }
	itemName := func(i int) string { return fmt.Sprintf("rest-item-%d", i) }

	st := newRESTStack(t, ua, ia, s, false)
	for r := 0; r < postRounds; r++ {
		var group []string
		item := make(map[string]string, s)
		for i := 0; i < s; i++ {
			u := name((r*s + i) % users)
			group = append(group, u)
			item[u] = itemName((r + i) % items)
		}
		st.round(t, group, func(ctx context.Context, u string) error {
			return st.cl.Post(ctx, u, item[u], "")
		})
	}
	if err := st.eng.TrainNow(); err != nil {
		t.Fatal(err)
	}
	gets := func(st *restStack) map[string][]string {
		answers := make(map[string][]string, users)
		var mu sync.Mutex
		for r := 0; r < users/s; r++ {
			var group []string
			for i := 0; i < s; i++ {
				group = append(group, name(r*s+i))
			}
			st.round(t, group, func(ctx context.Context, u string) error {
				items, err := st.cl.Get(ctx, u)
				mu.Lock()
				answers[u] = items
				mu.Unlock()
				return err
			})
		}
		return answers
	}
	before := gets(st)

	// The breach.
	breached := st.ua.Layer.Enclave()
	if layer == rotation.LayerIA {
		breached = st.ia.Layer.Enclave()
	}
	stolen := breached.Compromise()
	loot := adversary.Loot{UA: stolen}
	if layer == rotation.LayerIA {
		loot = adversary.Loot{IA: stolen}
	}

	// The response: replay into a fresh LRS behind nothing but its REST
	// handler, watched by the auditor.
	fresh, err := engine.Open(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	srv := httptest.NewServer(engine.NewHandler(fresh))
	t.Cleanup(srv.Close)
	post := rotation.PostTo(srv.Client(), srv.URL)
	aud := audit.New(audit.Config{})
	var res *rotation.Result
	responder := rotation.NewResponder(func(l rotation.Layer) error {
		var err error
		res, err = rotation.RotateKeys(l, ua, ia, st.eng.ForEachEvent, func(ev message.LRSPost) error {
			if aud.State() != audit.StateViolated {
				t.Error("the auditor cleared the breach before the replay returned")
			}
			return post(ev)
		})
		return err
	}, func(err error) { t.Error(err) })
	responder.Audit = aud
	responder.Countermeasure(breached)
	if res == nil {
		t.Fatal("the breach response did not rotate")
	}
	if aud.State() != audit.StateOK {
		t.Errorf("auditor state %v after the replay succeeded, want ok", aud.State())
	}
	// The response leaves the old stack serving, on the old LRS and
	// through the breached enclaves, until the fresh stack takes over.
	for u, items := range gets(st) {
		if !slices.Equal(items, before[u]) {
			t.Errorf("%s gets %v through the old stack after the breach response, %v before", u, items, before[u])
		}
	}

	// The loot is dead against the fresh LRS's data.
	var db []adversary.DBEvent
	keys := map[string]int{}
	fresh.ForEachEvent(func(d store.Document) {
		db = append(db, adversary.DBEvent{UserPseudonym: d.Fields["user"], ItemPseudonym: d.Fields["item"]})
		keys[d.Fields["idem"]]++
	})
	if f := adversary.DeanonymizeDB(loot, db); len(f.Users) != 0 || len(f.Items) != 0 {
		t.Errorf("the pre-breach loot de-pseudonymizes %d users and %d items of the fresh LRS", len(f.Users), len(f.Items))
	}
	// Every event arrived, once.
	n := st.eng.EventCount()
	if res.Replayed != n || fresh.EventCount() != n {
		t.Errorf("replayed %d events, the fresh LRS stores %d, the old one %d", res.Replayed, fresh.EventCount(), n)
	}
	st.eng.ForEachEvent(func(d store.Document) {
		if k := d.Fields["idem"]; keys[k] != 1 {
			t.Errorf("the event keyed %q is stored %d times in the fresh LRS", k, keys[k])
		}
	})

	// The fresh LRS serves the old model under the fresh pseudonyms.
	if err := fresh.TrainNow(); err != nil {
		t.Fatal(err)
	}
	back := map[string]string{} // fresh item pseudonym → old
	for i := 0; i < items; i++ {
		back[pseudonym(t, res.IA, itemName(i))] = pseudonym(t, ia, itemName(i))
	}
	var exempt []string
	for u := 0; u < users; u++ {
		want := st.eng.Recommend(pseudonym(t, ua, name(u)), 0)
		got := fresh.Recommend(pseudonym(t, res.UA, name(u)), 0)
		for i, item := range got {
			if old, ok := back[item]; ok {
				got[i] = old
			}
		}
		if !slices.Equal(got, want) {
			if layer == rotation.LayerUA || !samePermutation(got, want) {
				t.Errorf("%s: the fresh LRS recommends %v, the old one %v", name(u), got, want)
				continue
			}
			exempt = append(exempt, name(u))
		}
	}
	if len(exempt) > 0 {
		// Ties break by item pseudonym, and an IA rotation changes them.
		t.Logf("users whose equal-score items came back in another order: %v", exempt)
	}

	// Fresh enclaves, the fresh LRS, and clients holding the new bundle.
	var mu sync.Mutex
	var slots [][]byte
	tap := func(h http.Handler) http.Handler {
		return adversary.Tap(adversary.NewRecorder(), "ua→ia", func(body []byte) string {
			if _, entries, err := message.UnmarshalBatchEpoch(body); err == nil {
				mu.Lock()
				for _, e := range entries {
					slots = append(slots, e.Body)
				}
				mu.Unlock()
			}
			return ""
		}, h)
	}
	after := &restStack{eng: fresh}
	after.front(t, res.UA, res.IA, s, srv.URL, tap)
	for u, items := range gets(after) {
		if !slices.Equal(items, before[u]) && (layer == rotation.LayerUA || !samePermutation(items, before[u])) {
			t.Errorf("%s gets %v through the fresh stack, %v before the breach", u, items, before[u])
		}
	}

	// The leaked link key left service with the breached enclave.
	if len(slots) != users {
		t.Fatalf("captured %d UA→IA slots, want %d", len(slots), users)
	}
	for _, slot := range slots {
		if !opensAsGet(res.UA.LinkKey, slot) {
			t.Error("a fresh UA→IA slot does not open under the fresh link key")
		}
		if opensAsGet(stolen[proxy.SecretLinkKey], slot) {
			t.Error("the leaked link key opens a UA→IA slot of the re-provisioned stack")
		}
	}
}

// pseudonym is id under the layer's permanent key.
func pseudonym(t *testing.T, keys *proxy.LayerKeys, id string) string {
	t.Helper()
	p, err := keys.PseudonymizeItems([]string{id})
	if err != nil {
		t.Fatal(err)
	}
	return p[0]
}

// samePermutation reports whether a and b hold the same items.
func samePermutation(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// opensAsGet reports whether a UA→IA slot, opened under key, is a get.
func opensAsGet(key, slot []byte) bool {
	plain, err := ppcrypto.SymDecrypt(key, slot)
	if err != nil {
		return false
	}
	var req message.GetRequest
	return json.Unmarshal(plain, &req) == nil && req.EncUser != ""
}
