package rotation_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/audit"
	"pprox/internal/cluster"
	"pprox/internal/enclave"
	"pprox/internal/faults"
	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/proxy"
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

// freshLRS starts an empty LRS that is nothing but the engine's REST
// handler, wrapped in wrap when it is set, and returns the engine and
// the replay sink posting to it.
func freshLRS(t *testing.T, wrap func(http.Handler) http.Handler) (*engine.Engine, func(message.LRSPost) error) {
	t.Helper()
	e, err := engine.Open(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	var h http.Handler = engine.NewHandler(e)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return e, rotation.PostTo(srv.Client(), srv.URL)
}

// rotate runs the offline procedure for the layer from the deployment's
// LRS into a fresh one.
func rotate(t *testing.T, d *cluster.Deployment, layer rotation.Layer) (*rotation.Result, *engine.Engine) {
	t.Helper()
	fresh, post := freshLRS(t, nil)
	res, err := rotation.RotateKeys(layer, d.UAKeys, d.IAKeys, d.Engine.ForEachEvent, post)
	if err != nil {
		t.Fatal(err)
	}
	return res, fresh
}

func dbEvents(e *engine.Engine) []adversary.DBEvent {
	var db []adversary.DBEvent
	e.ForEachEvent(func(doc store.Document) {
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
	before := adversary.DeanonymizeDB(loot, dbEvents(d.Engine))
	if len(before.Users) == 0 {
		t.Fatal("sanity: loot should decrypt the pre-rotation database")
	}

	// Breach response: rotate the UA layer into a fresh LRS.
	res, fresh := rotate(t, d, rotation.LayerUA)
	if n := d.Engine.EventCount(); res.Replayed != n || fresh.EventCount() != n {
		t.Errorf("replayed %d events, the fresh LRS stores %d, the old one %d", res.Replayed, fresh.EventCount(), n)
	}

	// The same loot is useless against the fresh LRS's data.
	after := adversary.DeanonymizeDB(loot, dbEvents(fresh))
	if len(after.Users) != 0 {
		t.Errorf("leaked keys still decrypt %d users after rotation", len(after.Users))
	}
	if len(after.LinkedPairs) != 0 {
		t.Errorf("linkage after rotation: %v", after.LinkedPairs)
	}
	// And the leaked link key leaves service: both layers share a fresh
	// one, and the IA keeps its other keys.
	if bytes.Equal(res.UA.LinkKey, loot.UA[proxy.SecretLinkKey]) || !bytes.Equal(res.UA.LinkKey, res.IA.LinkKey) {
		t.Error("rotation did not give both layers one fresh link key")
	}
	if !bytes.Equal(res.IA.Permanent, d.IAKeys.Permanent) || !res.IA.Box.Equal(d.IAKeys.Box) {
		t.Error("a UA rotation changed the IA layer's keys")
	}
}

func TestRotationPreservesProfileContinuity(t *testing.T) {
	d := deployAndSeed(t)
	res, fresh := rotate(t, d, rotation.LayerUA)
	if err := fresh.TrainNow(); err != nil {
		t.Fatal(err)
	}

	// Pseudonym migration is a bijection: the probe user's profile must
	// survive — the fresh LRS knows the probe's history under the fresh
	// pseudonym and still recommends "b".
	freshProbe, err := res.UA.PseudonymizeItems([]string{"probe"})
	if err != nil {
		t.Fatal(err)
	}
	recs := fresh.Recommend(freshProbe[0], 5)
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
	if f := adversary.DeanonymizeDB(loot, dbEvents(d.Engine)); len(f.Items) == 0 {
		t.Fatal("sanity: IA loot should decrypt pre-rotation items")
	}
	res, fresh := rotate(t, d, rotation.LayerIA)
	if f := adversary.DeanonymizeDB(loot, dbEvents(fresh)); len(f.Items) != 0 {
		t.Errorf("leaked IA keys still decrypt %d items after rotation", len(f.Items))
	}
	if bytes.Equal(res.IA.Permanent, d.IAKeys.Permanent) || !bytes.Equal(res.UA.Permanent, d.UAKeys.Permanent) {
		t.Error("an IA rotation must re-key the IA layer and only it")
	}
}

// TestRotationKeepsTheKindOfKeyMaterial: fresh keys replace every
// asymmetric key the layer held and add none it did not — a rotation on a
// paper-suite deployment must not start advertising a box key its clients
// never used, and one on a default deployment must not leave the stolen
// box key in service.
func TestRotationKeepsTheKindOfKeyMaterial(t *testing.T) {
	d := deployAndSeed(t)
	res, _ := rotate(t, d, rotation.LayerIA)
	if res.IA.Box == nil || res.IA.Box.Equal(d.IAKeys.Box) {
		t.Error("default key material: rotation did not replace the box key")
	}

	paper := *d.IAKeys
	paper.Box = nil
	_, post := freshLRS(t, nil)
	res, err := rotation.RotateKeys(rotation.LayerIA, d.UAKeys, &paper, d.Engine.ForEachEvent, post)
	if err != nil {
		t.Fatal(err)
	}
	if res.IA.Box != nil {
		t.Error("RSA-only key material: rotation introduced a box key")
	}
}

func TestRotateKeysUnknownLayer(t *testing.T) {
	d := deployAndSeed(t)
	_, post := freshLRS(t, nil)
	if _, err := rotation.RotateKeys(rotation.Layer(99), d.UAKeys, d.IAKeys, d.Engine.ForEachEvent, post); !errors.Is(err, rotation.ErrUnknownLayer) {
		t.Fatalf("err = %v, want ErrUnknownLayer", err)
	}
}

// sameEvents reports whether two dumps hold the same events.
func sameEvents(a, b []adversary.DBEvent) bool {
	counts := map[adversary.DBEvent]int{}
	for _, ev := range a {
		counts[ev]++
	}
	for _, ev := range b {
		counts[ev]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}

func TestRotateKeysFailsClosedOnWrongKeys(t *testing.T) {
	// Rotating with keys that do not match the database must post
	// nothing and change nothing (fail closed).
	d := deployAndSeed(t)
	before := dbEvents(d.Engine)
	fresh, post := freshLRS(t, nil)
	// The IA permanent key cannot decrypt user pseudonyms.
	if _, err := rotation.RotateKeys(rotation.LayerUA, d.IAKeys, d.IAKeys, d.Engine.ForEachEvent, post); err == nil {
		t.Fatal("rotation with mismatched keys succeeded")
	}
	if !sameEvents(before, dbEvents(d.Engine)) {
		t.Fatal("database mutated by a failed rotation")
	}
	if n := fresh.EventCount(); n != 0 {
		t.Errorf("a rotation that could not map its first pseudonym posted %d events", n)
	}
}

// TestReplayFailsClosed: the fresh LRS refuses the k-th replayed post.
// The procedure returns an error, the old LRS and the old keys stay in
// force, and the auditor stays violated. The refused event has no
// idempotency key, and it is not retried. A second run into another
// fresh, empty LRS succeeds and closes the window.
func TestReplayFailsClosed(t *testing.T) {
	d := deployAndSeed(t)
	// An event stored without a key, as a client without the feature
	// posts it, last in log order.
	old := dbEvents(d.Engine)
	d.Engine.InsertEvent(old[0].UserPseudonym, old[0].ItemPseudonym, "")
	old = dbEvents(d.Engine)
	k := int64(len(old))
	uaKeys, iaKeys := *d.UAKeys, *d.IAKeys

	inj := faults.NewInjector(1)
	defer inj.Close()
	var posts atomic.Int64
	refused, sink := freshLRS(t, func(h http.Handler) http.Handler {
		h = inj.Middleware(h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if posts.Add(1) == k {
				inj.Arm(faults.Rule{Kind: faults.KindError, Status: http.StatusServiceUnavailable, Count: 1})
			}
			h.ServeHTTP(w, r)
		})
	})

	aud := audit.New(audit.Config{})
	var rotateErr error
	responder := rotation.NewResponder(func(layer rotation.Layer) error {
		if aud.State() != audit.StateViolated {
			t.Error("auditor not violated while the replay runs")
		}
		var res *rotation.Result
		res, rotateErr = rotation.RotateKeys(layer, d.UAKeys, d.IAKeys, d.Engine.ForEachEvent, sink)
		if rotateErr == nil {
			d.UAKeys, d.IAKeys = res.UA, res.IA
		}
		return rotateErr
	}, func(error) {})
	responder.Audit = aud
	ua := d.UALayers[0].Enclave()
	responder.Countermeasure(ua)

	if rotateErr == nil {
		t.Fatal("a replay the fresh LRS refused succeeded")
	}
	if n := posts.Load(); n != k {
		t.Errorf("the fresh LRS received %d posts, want %d: the refused one was retried", n, k)
	}
	if n := refused.EventCount(); n != int(k)-1 {
		t.Errorf("the refused LRS stores %d events, want %d", n, k-1)
	}
	if aud.State() != audit.StateViolated {
		t.Error("auditor cleared the breach after a failed replay")
	}
	if !sameEvents(old, dbEvents(d.Engine)) {
		t.Error("the old LRS changed")
	}
	if !bytes.Equal(d.UAKeys.Permanent, uaKeys.Permanent) || !bytes.Equal(d.UAKeys.LinkKey, uaKeys.LinkKey) ||
		!bytes.Equal(d.IAKeys.LinkKey, iaKeys.LinkKey) {
		t.Error("a failed rotation replaced the keys in force")
	}

	fresh, sink := freshLRS(t, nil)
	responder.Countermeasure(ua)
	if rotateErr != nil {
		t.Fatalf("second run into a fresh LRS: %v", rotateErr)
	}
	if fresh.EventCount() != len(old) {
		t.Errorf("second run stored %d events, want %d", fresh.EventCount(), len(old))
	}
	if aud.State() != audit.StateOK {
		t.Errorf("auditor state %v after a successful replay, want ok", aud.State())
	}
}

// inProcessRotation is a breach response's rotate function over a
// deployment: each rotation replays the current LRS into a fresh one and
// makes the fresh keys and LRS current.
type inProcessRotation struct {
	t       *testing.T
	ua, ia  *proxy.LayerKeys
	lrs     *engine.Engine
	results []*rotation.Result
}

func newInProcessRotation(t *testing.T, d *cluster.Deployment) *inProcessRotation {
	return &inProcessRotation{t: t, ua: d.UAKeys, ia: d.IAKeys, lrs: d.Engine}
}

func (r *inProcessRotation) rotate(layer rotation.Layer) error {
	fresh, post := freshLRS(r.t, nil)
	res, err := rotation.RotateKeys(layer, r.ua, r.ia, r.lrs.ForEachEvent, post)
	if err != nil {
		return err
	}
	r.ua, r.ia, r.lrs = res.UA, res.IA, fresh
	r.results = append(r.results, res)
	return nil
}

func TestResponderEndToEnd(t *testing.T) {
	// Full loop: breach detector fires → responder rotates → old loot
	// useless against the fresh LRS.
	d := deployAndSeed(t)
	rot := newInProcessRotation(t, d)
	rotated := make(chan struct{}, 1)
	responder := rotation.NewResponder(func(layer rotation.Layer) error {
		if layer != rotation.LayerUA {
			t.Errorf("rotated %v, want UA", layer)
		}
		err := rot.rotate(layer)
		rotated <- struct{}{}
		return err
	}, func(err error) { t.Errorf("responder error: %v", err) })
	det := enclave.NewBreachDetector(time.Millisecond, responder.Countermeasure)
	defer det.Stop()

	// Attach the detector to the UA enclave's platform and compromise.
	uaEncl := d.UALayers[0].Enclave()
	platformOf(t, uaEncl).SetBreachDetector(det)
	loot := adversary.Loot{UA: uaEncl.Compromise()}

	select {
	case <-rotated:
	case <-time.After(5 * time.Second):
		t.Fatal("responder never rotated")
	}

	if f := adversary.DeanonymizeDB(loot, dbEvents(rot.lrs)); len(f.Users) != 0 {
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
	errs := make(chan error, 1)
	responder := rotation.NewResponder(func(rotation.Layer) error {
		t.Error("rotated for an unknown enclave")
		return nil
	}, func(err error) { errs <- err })

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
	rot := newInProcessRotation(t, d)
	responder := rotation.NewResponder(rot.rotate,
		func(err error) { t.Errorf("responder error: %v", err) })

	iaEncl := d.IALayers[0].Enclave()
	loot := adversary.Loot{IA: iaEncl.Compromise()}
	responder.Countermeasure(iaEncl)

	if len(rot.results) != 1 || rot.results[0].Layer != rotation.LayerIA {
		t.Fatalf("rotations %v, want one of the IA layer", rot.results)
	}
	if f := adversary.DeanonymizeDB(loot, dbEvents(rot.lrs)); len(f.Items) != 0 {
		t.Errorf("IA loot still decrypts %d items", len(f.Items))
	}
}

func TestResponderSequentialBreaches(t *testing.T) {
	// After a first rotation, a second breach of the SAME layer must
	// rotate from the fresh baseline, not the original keys.
	d := deployAndSeed(t)
	rot := newInProcessRotation(t, d)
	responder := rotation.NewResponder(rot.rotate,
		func(err error) { t.Errorf("responder error: %v", err) })

	uaEncl := d.UALayers[0].Enclave()
	responder.Countermeasure(uaEncl)
	responder.Countermeasure(uaEncl) // second breach, same layer
	if len(rot.results) != 2 {
		t.Fatalf("rotations = %d, want 2", len(rot.results))
	}
	// The second rotation's fresh keys must decrypt the current LRS.
	f := adversary.DeanonymizeDB(adversary.Loot{UA: map[string][]byte{
		"sk": nil, "k": rot.results[1].UA.Permanent,
	}}, dbEvents(rot.lrs))
	if len(f.Users) == 0 {
		t.Error("second rotation did not chain from the first")
	}
	// The FIRST rotation's keys are already dead.
	f = adversary.DeanonymizeDB(adversary.Loot{UA: map[string][]byte{
		"sk": nil, "k": rot.results[0].UA.Permanent,
	}}, dbEvents(rot.lrs))
	if len(f.Users) != 0 {
		t.Error("first rotation's keys still live after the second rotation")
	}
}
