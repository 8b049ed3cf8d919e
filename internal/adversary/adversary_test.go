package adversary_test

import (
	"context"
	"crypto/ecdh"
	"crypto/rsa"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/client"
	"pprox/internal/enclave"
	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/reccache"
	"pprox/internal/transport"
)

// tappedStack is a PProx deployment with the adversary's network taps
// installed: one on the UA ingress link (sees source identities, encrypted
// bodies) and one on the LRS ingress link (sees pseudonymized requests in
// the clear).
type tappedStack struct {
	rec    *adversary.Recorder
	client *client.Client
	engine *engine.Engine
	uaEncl *enclave.Enclave
	iaEncl *enclave.Enclave
	uaKeys *proxy.LayerKeys
	iaKeys *proxy.LayerKeys
	ua, ia *proxy.Layer
	net    *transport.Network
}

// keyMaterial is one of the two kinds of layer key material a deployment
// can run: what this version provisions (RSA and box keys, clients seal
// boxes) and the paper's (RSA only). Every attack in this package runs
// against both, and must reach the same verdict: the suite changes how a
// field is sealed for a layer, not what any layer or observer learns.
type keyMaterial struct {
	name    string
	rsaOnly bool
}

func (km keyMaterial) newKeys() (*proxy.LayerKeys, error) {
	if km.rsaOnly {
		return proxy.NewRSAOnlyLayerKeys()
	}
	return proxy.NewLayerKeys()
}

// fieldSize is the length of an identifier field clients of this key
// material put on the wire.
func (km keyMaterial) fieldSize() int {
	if km.rsaOnly {
		return ppcrypto.RSACiphertextSize
	}
	return ppcrypto.IDBlockSize + ppcrypto.BoxOverhead
}

func eachKeyMaterial(t *testing.T, fn func(t *testing.T, km keyMaterial)) {
	for _, km := range []keyMaterial{{name: "box"}, {name: "rsa-only", rsaOnly: true}} {
		km := km
		t.Run(km.name, func(t *testing.T) { fn(t, km) })
	}
}

func newTappedStack(t *testing.T, km keyMaterial, shuffleSize int) *tappedStack {
	return newTappedStackWithCache(t, km, shuffleSize, nil)
}

// newTappedStackWithCache optionally equips the IA layer with the
// in-enclave recommendation cache, for the cache-specific attacks.
func newTappedStackWithCache(t *testing.T, km keyMaterial, shuffleSize int, cache *reccache.Cache) *tappedStack {
	return newTappedStackEngine(t, km, shuffleSize, cache, engine.DefaultConfig())
}

// newTappedStackEngine additionally takes the LRS engine configuration,
// so the shard/WAL attacks can run against a durable sharded store.
func newTappedStackEngine(t *testing.T, km keyMaterial, shuffleSize int, cache *reccache.Cache, engCfg engine.Config) *tappedStack {
	t.Helper()
	st := &tappedStack{rec: adversary.NewRecorder(), net: transport.NewNetwork()}
	t.Cleanup(func() { st.net.Close() })

	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	iaOpts := proxy.IAOptions{Cache: cache}
	platform := enclave.NewPlatform(as)
	st.uaEncl = proxy.NewUAEnclave(platform)
	st.iaEncl = proxy.NewIAEnclave(platform, iaOpts)
	if st.uaKeys, err = km.newKeys(); err != nil {
		t.Fatal(err)
	}
	if st.iaKeys, err = km.newKeys(); err != nil {
		t.Fatal(err)
	}
	if err := st.uaKeys.Provision(as, st.uaEncl, proxy.UAIdentity); err != nil {
		t.Fatal(err)
	}
	if err := st.iaKeys.Provision(as, st.iaEncl, proxy.IAIdentityFor(iaOpts)); err != nil {
		t.Fatal(err)
	}

	st.engine = engine.New(engCfg)
	t.Cleanup(func() { st.engine.Close() })
	// LRS tap: the adversary reads API calls to the LRS in the clear
	// (§2.3 ➋) — label each with the pseudonymous user it carries.
	lrsTap := adversary.Tap(st.rec, "ia→lrs", func(body []byte) string {
		var req message.LRSPost
		if err := message.Unmarshal(body, &req); err == nil && req.User != "" {
			return req.User
		}
		var q message.LRSGet
		if err := message.Unmarshal(body, &q); err == nil {
			return q.User
		}
		return ""
	}, engine.NewHandler(st.engine))
	st.serve(t, "lrs", lrsTap)

	httpClient := transport.HTTPClient(st.net, 30*time.Second)
	ia, err := proxy.New(proxy.Config{
		Role: proxy.RoleIA, Enclave: st.iaEncl, Next: "http://lrs",
		HTTPClient: httpClient, ShuffleSize: shuffleSize, ShuffleTimeout: 2 * time.Second,
		RecCache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.ia = ia
	st.serve(t, "ia", ia)

	ua, err := proxy.New(proxy.Config{
		Role: proxy.RoleUA, Enclave: st.uaEncl, Next: "http://ia",
		HTTPClient: httpClient, ShuffleSize: shuffleSize, ShuffleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.ua = ua
	// Edge tap: bodies are encrypted and constant-size, so no label is
	// extractable from content; the adversary's edge knowledge (source
	// address ↔ time) is recorded by the test driver at send time.
	st.serve(t, "ua", adversary.Tap(st.rec, "client→ua", nil, ua))

	st.client = client.New(proxy.Bundle(st.uaKeys, st.iaKeys), httpClient, "http://ua")
	return st
}

func (st *tappedStack) serve(t *testing.T, addr string, h http.Handler) {
	t.Helper()
	l, err := st.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := transport.Serve(l, h)
	t.Cleanup(func() { shutdown() })
}

// truth computes the ground-truth user→pseudonym mapping with the
// experimenter's knowledge of kUA.
func (st *tappedStack) truth(t *testing.T, users []string) map[string]string {
	t.Helper()
	m := make(map[string]string, len(users))
	for _, u := range users {
		p, err := ppcrypto.Pseudonymize(st.uaKeys.Permanent, u)
		if err != nil {
			t.Fatal(err)
		}
		m[u] = message.Encode64(p)
	}
	return m
}

func TestTimingAttackSucceedsWithoutShuffling(t *testing.T) {
	eachKeyMaterial(t, testTimingAttackSucceedsWithoutShuffling)
}

func testTimingAttackSucceedsWithoutShuffling(t *testing.T, km keyMaterial) {
	st := newTappedStack(t, km, 0)
	ctx := context.Background()

	const n = 20
	var users []string
	var edge []adversary.Event
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("victim-%02d", i)
		users = append(users, u)
		// The adversary observes the arrival (source, time) at the UA.
		edge = append(edge, adversary.Event{T: time.Now(), Link: "client→ua", Label: u})
		if err := st.client.Post(ctx, u, "sensitive-item", ""); err != nil {
			t.Fatal(err)
		}
	}

	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != n {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), n)
	}
	acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, lrs), st.truth(t, users))
	if acc < 0.95 {
		t.Errorf("in-order attack accuracy without shuffling = %.2f, want ≈ 1 "+
			"(this is the vulnerability shuffling exists to close)", acc)
	}
	accNearest := adversary.Accuracy(adversary.CorrelateNearestTime(edge, lrs), st.truth(t, users))
	if accNearest < 0.95 {
		t.Errorf("nearest-time attack accuracy without shuffling = %.2f", accNearest)
	}
}

func TestTimingAttackDefeatedByShuffling(t *testing.T) {
	eachKeyMaterial(t, testTimingAttackDefeatedByShuffling)
}

func testTimingAttackDefeatedByShuffling(t *testing.T, km keyMaterial) {
	const s = 8
	const batches = 8
	st := newTappedStack(t, km, s)
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
			// Keep the adversary's arrival order unambiguous.
			time.Sleep(2 * time.Millisecond)
		}
		wg.Wait()
	}

	lrs := st.rec.Events("ia→lrs")
	if len(lrs) != len(users) {
		t.Fatalf("LRS tap saw %d messages, want %d", len(lrs), len(users))
	}
	acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, lrs), st.truth(t, users))
	// §6.2: expected accuracy is 1/S = 0.125; allow generous noise but
	// demand it is nowhere near the unshuffled ≈ 1.0.
	if acc > 0.4 {
		t.Errorf("attack accuracy with S=%d shuffling = %.2f, want ≈ 1/S = %.3f", s, acc, 1.0/s)
	}
	t.Logf("shuffled attack accuracy = %.3f (theory 1/S = %.3f)", acc, 1.0/s)
}

func seedDB(t *testing.T, st *tappedStack) []adversary.DBEvent {
	t.Helper()
	ctx := context.Background()
	pairs := [][2]string{
		{"alice", "war-and-peace"},
		{"alice", "anna-karenina"},
		{"bob", "war-and-peace"},
		{"carol", "crime-and-punishment"},
	}
	for _, p := range pairs {
		if err := st.client.Post(ctx, p[0], p[1], ""); err != nil {
			t.Fatal(err)
		}
	}
	var db []adversary.DBEvent
	st.engine.ForEachEvent(func(d store.Document) {
		db = append(db, adversary.DBEvent{
			UserPseudonym: d.Fields["user"],
			ItemPseudonym: d.Fields["item"],
		})
	})
	if len(db) != len(pairs) {
		t.Fatalf("db has %d events, want %d", len(db), len(pairs))
	}
	return db
}

func TestCompromisedUACannotLinkUserToItem(t *testing.T) {
	eachKeyMaterial(t, testCompromisedUACannotLinkUserToItem)
}

func testCompromisedUACannotLinkUserToItem(t *testing.T, km keyMaterial) {
	st := newTappedStack(t, km, 0)
	db := seedDB(t, st)

	loot := adversary.Loot{UA: st.uaEncl.Compromise()}
	f := adversary.DeanonymizeDB(loot, db)

	// Case 1c: users de-pseudonymized, items safe, no link.
	if len(f.Users) != 3 {
		t.Errorf("adversary recovered %d users, expected all 3 (UA key leaked)", len(f.Users))
	}
	if len(f.Items) != 0 {
		t.Errorf("adversary recovered %d items with only UA secrets", len(f.Items))
	}
	if len(f.LinkedPairs) != 0 {
		t.Errorf("user–interest unlinkability broken with a single UA enclave: %v", f.LinkedPairs)
	}
}

func TestCompromisedIACannotLinkUserToItem(t *testing.T) {
	eachKeyMaterial(t, testCompromisedIACannotLinkUserToItem)
}

func testCompromisedIACannotLinkUserToItem(t *testing.T, km keyMaterial) {
	st := newTappedStack(t, km, 0)
	db := seedDB(t, st)

	loot := adversary.Loot{IA: st.iaEncl.Compromise()}
	f := adversary.DeanonymizeDB(loot, db)

	// Case 2c: items de-pseudonymized, users safe, no link.
	if len(f.Items) != 3 {
		t.Errorf("adversary recovered %d items, expected all 3 (IA key leaked)", len(f.Items))
	}
	if len(f.Users) != 0 {
		t.Errorf("adversary recovered %d users with only IA secrets", len(f.Users))
	}
	if len(f.LinkedPairs) != 0 {
		t.Errorf("user–interest unlinkability broken with a single IA enclave: %v", f.LinkedPairs)
	}
}

func TestBothLayersCompromisedDoesLink(t *testing.T) {
	eachKeyMaterial(t, testBothLayersCompromisedDoesLink)
}

func testBothLayersCompromisedDoesLink(t *testing.T, km keyMaterial) {
	// Sanity check on the model's sharpness: breaking BOTH layers (which
	// the adversary model §2.3 excludes — one enclave at a time) links
	// users to items. The defence is the split, not obscurity.
	st := newTappedStack(t, km, 0)
	db := seedDB(t, st)

	loot := adversary.Loot{UA: st.uaEncl.Compromise(), IA: st.iaEncl.Compromise()}
	f := adversary.DeanonymizeDB(loot, db)
	if len(f.LinkedPairs) != 4 {
		t.Errorf("both layers broken yet only %d links recovered", len(f.LinkedPairs))
	}
	found := false
	for _, p := range f.LinkedPairs {
		if p[0] == "alice" && p[1] == "war-and-peace" {
			found = true
		}
	}
	if !found {
		t.Error("expected alice–war-and-peace link missing")
	}
}

func TestInterceptedPostRevealsOnlyOneSide(t *testing.T) {
	eachKeyMaterial(t, testInterceptedPostRevealsOnlyOneSide)
}

func testInterceptedPostRevealsOnlyOneSide(t *testing.T, km keyMaterial) {
	st := newTappedStack(t, km, 0)

	// Capture a post message as the user-side library emits it (§6.1
	// cases 1a and 2a): build it with the public bundle directly.
	bundle := proxy.Bundle(st.uaKeys, st.iaKeys)
	encUser := mustSealID(t, bundle.UABox, bundle.UAPublic, ppcrypto.RoleUAUser, "alice")
	encItem := mustSealID(t, bundle.IABox, bundle.IAPublic, ppcrypto.RoleIAItem, "war-and-peace")
	captured := message.PostRequest{EncUser: encUser, EncItem: encItem}
	// The capture is of this key material's suite — the loot below must
	// open boxes where clients seal boxes, or the verdicts are vacuous.
	if ct, err := message.Decode64(encUser); err != nil || len(ct) != km.fieldSize() {
		t.Fatalf("captured enc_user is %d bytes (err %v), want %d", len(ct), err, km.fieldSize())
	}

	uaLoot := adversary.Loot{UA: st.uaEncl.Compromise()}
	got := adversary.DecryptInterceptedPost(uaLoot, captured)
	if got.User != "alice" {
		t.Errorf("UA loot failed to decrypt the user field: %+v", got)
	}
	if got.Item != "" {
		t.Errorf("UA loot decrypted the ITEM field: %+v — unlinkability broken", got)
	}

	iaLoot := adversary.Loot{IA: st.iaEncl.Compromise()}
	got = adversary.DecryptInterceptedPost(iaLoot, captured)
	if got.Item != "war-and-peace" {
		t.Errorf("IA loot failed to decrypt the item field: %+v", got)
	}
	if got.User != "" {
		t.Errorf("IA loot decrypted the USER field: %+v — unlinkability broken", got)
	}
}

func TestInterceptedGetResponseStaysOpaque(t *testing.T) {
	eachKeyMaterial(t, testInterceptedGetResponseStaysOpaque)
}

func testInterceptedGetResponseStaysOpaque(t *testing.T, km keyMaterial) {
	// Case 1b: the response list is encrypted under k_u, held only by
	// the client and the IA layer; UA loot must not open it.
	st := newTappedStack(t, km, 0)
	ctx := context.Background()

	// Seed and train so the get returns a real list, then capture the
	// response at the UA↔client link by re-issuing the raw exchange.
	seedDB(t, st)
	if err := st.engine.TrainNow(); err != nil {
		t.Fatal(err)
	}

	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	bundle := proxy.Bundle(st.uaKeys, st.iaKeys)
	body, err := message.Marshal(message.GetRequest{
		EncUser:    mustSealID(t, bundle.UABox, bundle.UAPublic, ppcrypto.RoleUAUser, "alice"),
		EncTempKey: mustSeal(t, bundle.IABox, bundle.IAPublic, ppcrypto.RoleIATempKey, ku),
	})
	if err != nil {
		t.Fatal(err)
	}
	httpClient := transport.HTTPClient(st.net, 10*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://ua"+message.QueriesPath, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gr message.GetResponse
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := message.Unmarshal(raw, &gr); err != nil {
		t.Fatalf("unmarshal captured response: %v (body=%s)", err, raw)
	}

	loot := adversary.Loot{UA: st.uaEncl.Compromise()}
	if items, ok := adversary.DecryptInterceptedGetResponse(loot, gr); ok {
		t.Errorf("UA loot decrypted the recommendation list: %v", items)
	}
	// The legitimate client CAN read it with k_u.
	ct, err := message.Decode64(gr.EncItems)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := ppcrypto.SymDecrypt(ku, ct)
	if err != nil {
		t.Fatal(err)
	}
	items, err := message.DecodeItemList(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Error("legitimate decryption yielded no items")
	}
}

// mustSeal encrypts a field for one layer as the user-side library holding
// the bundle does.
func mustSeal(t *testing.T, box *ecdh.PublicKey, pub *rsa.PublicKey, role ppcrypto.Role, plain []byte) string {
	t.Helper()
	ct, err := ppcrypto.SealField(box, pub, role, plain)
	if err != nil {
		t.Fatal(err)
	}
	return message.Encode64(ct)
}

func mustSealID(t *testing.T, box *ecdh.PublicKey, pub *rsa.PublicKey, role ppcrypto.Role, id string) string {
	t.Helper()
	block, err := ppcrypto.PadID(id)
	if err != nil {
		t.Fatal(err)
	}
	return mustSeal(t, box, pub, role, block)
}
