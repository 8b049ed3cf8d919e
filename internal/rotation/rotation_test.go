package rotation_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/cluster"
	"pprox/internal/enclave"
	"pprox/internal/lrs/store"
	"pprox/internal/reccache"
	"pprox/internal/rotation"
)

// deployAndSeed brings up a full encrypted stack and posts a small
// community through it.
func deployAndSeed(t *testing.T) *cluster.Deployment {
	t.Helper()
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		LRSFrontends: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	cl := d.Client(10 * time.Second)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		u := fmt.Sprintf("u%d", i)
		mustPost(t, cl.Post(ctx, u, "a", ""))
		mustPost(t, cl.Post(ctx, u, "b", ""))
	}
	for i := 0; i < 5; i++ {
		mustPost(t, cl.Post(context.Background(), fmt.Sprintf("s%d", i), "c", ""))
	}
	mustPost(t, cl.Post(ctx, "probe", "a", ""))
	if err := d.Engine.TrainNow(); err != nil {
		t.Fatal(err)
	}
	return d
}

func mustPost(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func dbEvents(d *cluster.Deployment) []adversary.DBEvent {
	var db []adversary.DBEvent
	d.Engine.ForEachEvent(func(doc store.Document) {
		db = append(db, adversary.DBEvent{
			UserPseudonym: doc.Fields["user"],
			ItemPseudonym: doc.Fields["item"],
		})
	})
	return db
}

func TestRotationInvalidatesLeakedKeys(t *testing.T) {
	d := deployAndSeed(t)

	// The adversary breaks the UA enclave and can read users today.
	loot := adversary.Loot{UA: d.UALayers[0].Enclave().Compromise()}
	before := adversary.DeanonymizeDB(loot, dbEvents(d))
	if len(before.Users) == 0 {
		t.Fatal("sanity: loot should decrypt the pre-rotation database")
	}

	// Breach response: rotate the UA layer and re-encrypt the database.
	res, err := rotation.RotateKeys(rotation.LayerUA, d.UAKeys, d.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated != d.Engine.EventCount() {
		t.Errorf("migrated %d of %d events", res.Migrated, d.Engine.EventCount())
	}

	// The same loot is now useless against the migrated database.
	after := adversary.DeanonymizeDB(loot, dbEvents(d))
	if len(after.Users) != 0 {
		t.Errorf("leaked keys still decrypt %d users after rotation", len(after.Users))
	}
	if len(after.LinkedPairs) != 0 {
		t.Errorf("linkage after rotation: %v", after.LinkedPairs)
	}
}

func TestRotationPreservesProfileContinuity(t *testing.T) {
	d := deployAndSeed(t)

	res, err := rotation.RotateKeys(rotation.LayerUA, d.UAKeys, d.Engine)
	if err != nil {
		t.Fatal(err)
	}

	// Pseudonym migration is a bijection: the probe user's profile must
	// survive — the engine still knows the probe's history under the
	// fresh pseudonym and still recommends "b".
	// Recommendations are queried directly against the engine with the
	// fresh pseudonym (the proxy instances would be re-provisioned with
	// res.Fresh in a full response; provisioning is covered below).
	freshProbe, err := res.Fresh.PseudonymizeItems([]string{"probe"})
	if err != nil {
		t.Fatal(err)
	}
	recs := d.Engine.Recommend(freshProbe[0], 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations after rotation — profile lost")
	}
	itemPseudoB, err := d.IAKeys.PseudonymizeItems([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0] != itemPseudoB[0] {
		t.Errorf("post-rotation top rec = %q, want pseudonym of b", recs[0])
	}
}

func TestRotateIA(t *testing.T) {
	d := deployAndSeed(t)
	loot := adversary.Loot{IA: d.IALayers[0].Enclave().Compromise()}
	if f := adversary.DeanonymizeDB(loot, dbEvents(d)); len(f.Items) == 0 {
		t.Fatal("sanity: IA loot should decrypt pre-rotation items")
	}
	if _, err := rotation.RotateKeys(rotation.LayerIA, d.IAKeys, d.Engine); err != nil {
		t.Fatal(err)
	}
	if f := adversary.DeanonymizeDB(loot, dbEvents(d)); len(f.Items) != 0 {
		t.Errorf("leaked IA keys still decrypt %d items after rotation", len(f.Items))
	}
}

// TestRotationKeepsTheKindOfKeyMaterial: fresh keys replace every
// asymmetric key the layer held and add none it did not — a rotation on a
// paper-suite deployment must not start advertising a box key its clients
// never used, and one on a default deployment must not leave the stolen
// box key in service.
func TestRotationKeepsTheKindOfKeyMaterial(t *testing.T) {
	d := deployAndSeed(t)
	res, err := rotation.RotateKeys(rotation.LayerIA, d.IAKeys, d.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fresh.Box == nil || res.Fresh.Box.Equal(d.IAKeys.Box) {
		t.Error("default key material: rotation did not replace the box key")
	}

	paper := *d.IAKeys
	paper.Box, paper.Permanent = nil, res.Fresh.Permanent // the database now speaks the fresh key
	res, err = rotation.RotateKeys(rotation.LayerIA, &paper, d.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fresh.Box != nil {
		t.Error("RSA-only key material: rotation introduced a box key")
	}
}

func TestRotateKeysUnknownLayer(t *testing.T) {
	d := deployAndSeed(t)
	if _, err := rotation.RotateKeys(rotation.Layer(99), d.UAKeys, d.Engine); !errors.Is(err, rotation.ErrUnknownLayer) {
		t.Fatalf("err = %v, want ErrUnknownLayer", err)
	}
}

func TestRotateKeysFailsClosedOnWrongKeys(t *testing.T) {
	// Rotating with keys that do not match the database must change
	// nothing (fail closed), not corrupt pseudonyms.
	d := deployAndSeed(t)
	wrong := d.IAKeys // IA permanent key cannot decrypt user pseudonyms
	before := dbEvents(d)
	if _, err := rotation.RotateKeys(rotation.LayerUA, wrong, d.Engine); err == nil {
		t.Fatal("rotation with mismatched keys succeeded")
	}
	after := dbEvents(d)
	if len(before) != len(after) {
		t.Fatalf("event count changed: %d → %d", len(before), len(after))
	}
	counts := map[string]int{}
	for _, ev := range before {
		counts[ev.UserPseudonym]++
	}
	for _, ev := range after {
		counts[ev.UserPseudonym]--
	}
	for _, n := range counts {
		if n != 0 {
			t.Fatal("database mutated by a failed rotation")
		}
	}
}

func TestResponderEndToEnd(t *testing.T) {
	// Full loop: breach detector fires → responder rotates → old loot
	// useless, fresh enclave serves.
	d := deployAndSeed(t)

	rotated := make(chan *rotation.Result, 1)
	responder := rotation.NewResponder(d.Engine, d.UAKeys, d.IAKeys,
		func(r *rotation.Result) { rotated <- r },
		func(err error) { t.Errorf("responder error: %v", err) },
	)
	det := enclave.NewBreachDetector(time.Millisecond, responder.Countermeasure)
	defer det.Stop()

	// Attach the detector to the UA enclave's platform and compromise.
	uaEncl := d.UALayers[0].Enclave()
	platformOf(t, uaEncl).SetBreachDetector(det)
	loot := adversary.Loot{UA: uaEncl.Compromise()}

	select {
	case res := <-rotated:
		if res.Layer != rotation.LayerUA {
			t.Errorf("rotated %v, want UA", res.Layer)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("responder never rotated")
	}

	if f := adversary.DeanonymizeDB(loot, dbEvents(d)); len(f.Users) != 0 {
		t.Errorf("loot still useful after automatic response: %d users", len(f.Users))
	}
}

// platformOf reaches the enclave's platform via the exported surface.
func platformOf(t *testing.T, e *enclave.Enclave) *enclave.Platform {
	t.Helper()
	p := e.Platform()
	if p == nil {
		t.Fatal("enclave has no platform")
	}
	return p
}

func TestResponderReportsUnknownEnclave(t *testing.T) {
	d := deployAndSeed(t)
	errs := make(chan error, 1)
	responder := rotation.NewResponder(d.Engine, d.UAKeys, d.IAKeys,
		nil, func(err error) { errs <- err })

	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	stranger := enclave.NewPlatform(as).Launch(enclave.CodeIdentity{Name: "unrelated", Version: "1"})
	responder.Countermeasure(stranger)
	select {
	case err := <-errs:
		if !errors.Is(err, rotation.ErrUnknownLayer) {
			t.Errorf("err = %v, want ErrUnknownLayer", err)
		}
	default:
		t.Error("no error reported for an unknown enclave")
	}
}

func TestResponderRotatesIALayer(t *testing.T) {
	d := deployAndSeed(t)
	rotated := make(chan *rotation.Result, 1)
	responder := rotation.NewResponder(d.Engine, d.UAKeys, d.IAKeys,
		func(r *rotation.Result) { rotated <- r },
		func(err error) { t.Errorf("responder error: %v", err) })

	iaEncl := d.IALayers[0].Enclave()
	loot := adversary.Loot{IA: iaEncl.Compromise()}
	responder.Countermeasure(iaEncl)

	select {
	case res := <-rotated:
		if res.Layer != rotation.LayerIA {
			t.Errorf("rotated %v, want IA", res.Layer)
		}
	default:
		t.Fatal("responder did not rotate")
	}
	if f := adversary.DeanonymizeDB(loot, dbEvents(d)); len(f.Items) != 0 {
		t.Errorf("IA loot still decrypts %d items", len(f.Items))
	}
}

func TestResponderSequentialBreaches(t *testing.T) {
	// After a first rotation, a second breach of the SAME layer must
	// rotate from the fresh baseline, not the original keys.
	d := deployAndSeed(t)
	var results []*rotation.Result
	responder := rotation.NewResponder(d.Engine, d.UAKeys, d.IAKeys,
		func(r *rotation.Result) { results = append(results, r) },
		func(err error) { t.Errorf("responder error: %v", err) })

	uaEncl := d.UALayers[0].Enclave()
	responder.Countermeasure(uaEncl)
	responder.Countermeasure(uaEncl) // second breach, same layer
	if len(results) != 2 {
		t.Fatalf("rotations = %d, want 2", len(results))
	}
	// The second rotation's fresh keys must decrypt the current DB.
	f := adversary.DeanonymizeDB(adversary.Loot{UA: map[string][]byte{
		"sk": nil, "k": results[1].Fresh.Permanent,
	}}, dbEvents(d))
	if len(f.Users) == 0 {
		t.Error("second rotation did not chain from the first")
	}
	// The FIRST rotation's keys are already dead.
	f = adversary.DeanonymizeDB(adversary.Loot{UA: map[string][]byte{
		"sk": nil, "k": results[0].Fresh.Permanent,
	}}, dbEvents(d))
	if len(f.Users) != 0 {
		t.Error("first rotation's keys still live after the second rotation")
	}
}

func TestResponderFlushesRegisteredCaches(t *testing.T) {
	// A breach of EITHER layer must flush every registered
	// recommendation cache before keys rotate: cached lists derive from
	// the pre-breach key world.
	d := deployAndSeed(t)
	responder := rotation.NewResponder(d.Engine, d.UAKeys, d.IAKeys,
		nil, func(err error) { t.Errorf("responder error: %v", err) })

	cache := reccache.New(reccache.Config{})
	if err := cache.Put("", "pseudo-a", []string{"i1", "i2"}); err != nil {
		t.Fatal(err)
	}
	responder.AddCache(cache)

	gen := cache.Generation()
	responder.Countermeasure(d.UALayers[0].Enclave())
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after UA breach response, want 0", cache.Len())
	}
	if cache.Generation() != gen+1 {
		t.Errorf("generation %d → %d across breach response, want +1", gen, cache.Generation())
	}

	// An IA breach flushes again.
	if err := cache.Put("", "pseudo-b", []string{"i3"}); err != nil {
		t.Fatal(err)
	}
	responder.Countermeasure(d.IALayers[0].Enclave())
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after IA breach response, want 0", cache.Len())
	}
}
