package proxy

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pprox/internal/enclave"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
)

// handlers_test.go exercises the enclave ECALL handlers directly, without
// the HTTP plumbing: crafted ciphertexts in, transformed messages out.

type layerFixture struct {
	as     *enclave.AttestationService
	uaEncl *enclave.Enclave
	iaEncl *enclave.Enclave
	uaKeys *LayerKeys
	iaKeys *LayerKeys
	// rsaOnly makes the fixture's client side seal fields as a holder of
	// an RSA-only bundle would. The enclaves hold both keys either way.
	rsaOnly bool
}

// eachSuite runs fn twice over the shared fixture: with fields sealed as
// boxes (what bundles minted today produce) and as RSA-OAEP blocks (the
// paper's suite, and bundles still in the field). A handler must not be
// able to tell which it got beyond open()'s dispatch.
func eachSuite(t *testing.T, fn func(t *testing.T, f *layerFixture)) {
	base := newFixture(t)
	for _, rsaOnly := range []bool{false, true} {
		f := *base
		f.rsaOnly = rsaOnly
		name := "box"
		if rsaOnly {
			name = "rsa"
		}
		t.Run(name, func(t *testing.T) { fn(t, &f) })
	}
}

// Key generation is slow; share one fixture per test binary and rebuild
// only enclaves per test when needed.
var (
	fixtureOnce sync.Once
	fixture     *layerFixture
	fixtureErr  error
)

func newFixture(t *testing.T) *layerFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		f := &layerFixture{}
		if f.as, fixtureErr = enclave.NewAttestationService(); fixtureErr != nil {
			return
		}
		platform := enclave.NewPlatform(f.as)
		f.uaEncl = NewUAEnclave(platform)
		f.iaEncl = NewIAEnclave(platform, IAOptions{})
		if f.uaKeys, fixtureErr = NewLayerKeys(); fixtureErr != nil {
			return
		}
		if f.iaKeys, fixtureErr = NewLayerKeys(); fixtureErr != nil {
			return
		}
		if fixtureErr = f.uaKeys.Provision(f.as, f.uaEncl, UAIdentity); fixtureErr != nil {
			return
		}
		fixtureErr = f.iaKeys.Provision(f.as, f.iaEncl, IAIdentity)
		fixture = f
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

// seal encrypts a field for one layer as the user-side library would.
func (f *layerFixture) seal(t *testing.T, keys *LayerKeys, role ppcrypto.Role, plain []byte) string {
	t.Helper()
	box := keys.Box.PublicKey()
	if f.rsaOnly {
		box = nil
	}
	ct, err := ppcrypto.SealField(box, keys.Pair.Public, role, plain)
	if err != nil {
		t.Fatal(err)
	}
	return message.Encode64(ct)
}

func (f *layerFixture) encFor(t *testing.T, keys *LayerKeys, role ppcrypto.Role, id string) string {
	t.Helper()
	block, err := ppcrypto.PadID(id)
	if err != nil {
		t.Fatal(err)
	}
	return f.seal(t, keys, role, block)
}

// tempKey draws a k_u and seals it for the IA layer.
func (f *layerFixture) tempKey(t *testing.T) (ku []byte, enc string) {
	t.Helper()
	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	return ku, f.seal(t, f.iaKeys, ppcrypto.RoleIATempKey, ku)
}

func (f *layerFixture) pseudonym(t *testing.T, keys *LayerKeys, id string) string {
	t.Helper()
	p, err := ppcrypto.Pseudonymize(keys.Permanent, id)
	if err != nil {
		t.Fatal(err)
	}
	return message.Encode64(p)
}

func TestUAPostEcallPseudonymizesUserOnly(t *testing.T) {
	eachSuite(t, testUAPostEcallPseudonymizesUserOnly)
}

func testUAPostEcallPseudonymizesUserOnly(t *testing.T, f *layerFixture) {
	in, err := message.Marshal(message.PostRequest{
		EncUser: f.encFor(t, f.uaKeys, ppcrypto.RoleUAUser, "alice"),
		EncItem: f.encFor(t, f.iaKeys, ppcrypto.RoleIAItem, "dune"),
		Payload: "4.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.uaEncl.Ecall("ua/post", in)
	if err != nil {
		t.Fatalf("ua/post: %v", err)
	}
	var got message.PostRequest
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.EncUser != f.pseudonym(t, f.uaKeys, "alice") {
		t.Error("EncUser is not det_enc(u, kUA)")
	}
	var orig message.PostRequest
	if err := message.Unmarshal(in, &orig); err != nil {
		t.Fatal(err)
	}
	if got.EncItem != orig.EncItem {
		t.Error("UA layer modified the item field it must not be able to read")
	}
	if got.Payload != "4.5" {
		t.Error("payload not forwarded")
	}
}

func TestUAGetEcallPreservesTempKey(t *testing.T) { eachSuite(t, testUAGetEcallPreservesTempKey) }

func testUAGetEcallPreservesTempKey(t *testing.T, f *layerFixture) {
	_, encKu := f.tempKey(t)
	in, err := message.Marshal(message.GetRequest{
		EncUser:    f.encFor(t, f.uaKeys, ppcrypto.RoleUAUser, "bob"),
		EncTempKey: encKu,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.uaEncl.Ecall("ua/get", in)
	if err != nil {
		t.Fatal(err)
	}
	var got message.GetRequest
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.EncUser != f.pseudonym(t, f.uaKeys, "bob") {
		t.Error("user not pseudonymized")
	}
	if got.EncTempKey != encKu {
		t.Error("temp key field modified by the UA layer")
	}
}

func TestUAEcallRejectsBadInput(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name string
		body string
	}{
		{"not json", "{"},
		{"not base64", `{"enc_user":"!!!","enc_item":"AAAA"}`},
		{"wrong size ciphertext", `{"enc_user":"AAAA","enc_item":"AAAA"}`},
		{"garbage ciphertext", fmt.Sprintf(`{"enc_user":%q,"enc_item":"AAAA"}`,
			message.Encode64(make([]byte, ppcrypto.RSACiphertextSize)))},
		// All zeros at a box's length is the low-order point u = 0: X25519
		// refuses it, and the handler must not say so.
		{"box with a low-order ephemeral point", fmt.Sprintf(`{"enc_user":%q,"enc_item":"AAAA"}`,
			message.Encode64(make([]byte, ppcrypto.IDBlockSize+ppcrypto.BoxOverhead)))},
		{"box for another role", fmt.Sprintf(`{"enc_user":%q,"enc_item":"AAAA"}`,
			f.encFor(t, f.uaKeys, ppcrypto.RoleIAItem, "alice"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := f.uaEncl.Ecall("ua/post", []byte(tc.body)); !errors.Is(err, errEnclave) {
				t.Errorf("err = %v, want errEnclave", err)
			}
		})
	}
}

func TestUARejectsCiphertextForWrongLayer(t *testing.T) {
	eachSuite(t, testUARejectsCiphertextForWrongLayer)
}

func testUARejectsCiphertextForWrongLayer(t *testing.T, f *layerFixture) {
	// A user field encrypted for the IA layer must not decrypt at the UA.
	in, err := message.Marshal(message.PostRequest{
		EncUser: f.encFor(t, f.iaKeys, ppcrypto.RoleUAUser, "alice"), // wrong key on purpose
		EncItem: f.encFor(t, f.iaKeys, ppcrypto.RoleIAItem, "dune"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.uaEncl.Ecall("ua/post", in); !errors.Is(err, errEnclave) {
		t.Fatalf("err = %v, want errEnclave", err)
	}
}

func TestIAPostEcallProducesLRSPseudonyms(t *testing.T) {
	eachSuite(t, testIAPostEcallProducesLRSPseudonyms)
}

func testIAPostEcallProducesLRSPseudonyms(t *testing.T, f *layerFixture) {
	userPseudo := f.pseudonym(t, f.uaKeys, "alice")
	in, err := message.Marshal(message.PostRequest{
		EncUser: userPseudo, // already rewritten by the UA layer
		EncItem: f.encFor(t, f.iaKeys, ppcrypto.RoleIAItem, "dune"),
		Payload: "3.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.iaEncl.Ecall("ia/post", in)
	if err != nil {
		t.Fatal(err)
	}
	var got message.LRSPost
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.User != userPseudo {
		t.Error("IA layer altered the opaque user pseudonym")
	}
	if got.Item != f.pseudonym(t, f.iaKeys, "dune") {
		t.Error("item is not det_enc(i, kIA)")
	}
	if strings.Contains(string(out), "dune") {
		t.Error("cleartext item leaked to the LRS message")
	}
	if got.Payload != "3.0" {
		t.Error("payload dropped")
	}
}

func TestIAPostWithItemPseudonymizationDisabled(t *testing.T) {
	f := newFixture(t)
	platform := enclave.NewPlatform(f.as)
	ia := NewIAEnclave(platform, IAOptions{DisableItemPseudonymization: true})
	if err := f.iaKeys.Provision(f.as, ia, IAIdentityNoItemPseudonyms); err != nil {
		t.Fatal(err)
	}
	in, err := message.Marshal(message.PostRequest{
		EncUser: f.pseudonym(t, f.uaKeys, "alice"),
		EncItem: f.encFor(t, f.iaKeys, ppcrypto.RoleIAItem, "dune"),
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ia.Ecall("ia/post", in)
	if err != nil {
		t.Fatal(err)
	}
	var got message.LRSPost
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.Item != "dune" {
		t.Errorf("item = %q, want cleartext with pseudonymization disabled (§6.3)", got.Item)
	}
}

func TestIAGetRoundTripThroughKV(t *testing.T) { eachSuite(t, testIAGetRoundTripThroughKV) }

func testIAGetRoundTripThroughKV(t *testing.T, f *layerFixture) {
	ku, encKu := f.tempKey(t)
	reqBody, err := message.Marshal(message.GetRequest{
		EncUser:    f.pseudonym(t, f.uaKeys, "carol"),
		EncTempKey: encKu,
	})
	if err != nil {
		t.Fatal(err)
	}
	framed, err := message.Marshal(iaGetCall{Handle: "h-1", Body: reqBody})
	if err != nil {
		t.Fatal(err)
	}
	lrsReq, err := f.iaEncl.Ecall("ia/get", framed)
	if err != nil {
		t.Fatalf("ia/get: %v", err)
	}
	var lrsGet message.LRSGet
	if err := message.Unmarshal(lrsReq, &lrsGet); err != nil {
		t.Fatal(err)
	}
	if lrsGet.User != f.pseudonym(t, f.uaKeys, "carol") {
		t.Error("LRS get does not carry the user pseudonym")
	}
	if strings.Contains(string(lrsReq), "enc_temp_key") {
		t.Error("temp key leaked toward the LRS")
	}
	if f.iaEncl.KV().Len() != 1 {
		t.Fatalf("KV holds %d entries, want the parked k_u", f.iaEncl.KV().Len())
	}

	// LRS answers with pseudonymized items; the response ECALL must
	// de-pseudonymize and re-encrypt under k_u, consuming the handle.
	lrsResp, err := message.Marshal(message.LRSGetResponse{
		Items: []string{f.pseudonym(t, f.iaKeys, "dune"), f.pseudonym(t, f.iaKeys, "hyperion")},
	})
	if err != nil {
		t.Fatal(err)
	}
	framedResp, err := message.Marshal(iaGetCall{Handle: "h-1", Body: lrsResp})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.iaEncl.Ecall("ia/get-response", framedResp)
	if err != nil {
		t.Fatalf("ia/get-response: %v", err)
	}
	var resp message.GetResponse
	if err := message.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	ct, err := message.Decode64(resp.EncItems)
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
	if len(items) != 2 || items[0] != "dune" || items[1] != "hyperion" {
		t.Errorf("items = %v", items)
	}
	if f.iaEncl.KV().Len() != 0 {
		t.Error("k_u not consumed from the KV store")
	}

	// Replaying the response (same handle) must fail: k_u is gone.
	if _, err := f.iaEncl.Ecall("ia/get-response", framedResp); !errors.Is(err, errEnclave) {
		t.Errorf("replayed response accepted: err = %v", err)
	}
}

func TestIAGetRejectsWrongSizeTempKey(t *testing.T) { eachSuite(t, testIAGetRejectsWrongSizeTempKey) }

func testIAGetRejectsWrongSizeTempKey(t *testing.T, f *layerFixture) {
	// Encrypt a 16-byte blob as the "temp key": must be rejected.
	short := f.seal(t, f.iaKeys, ppcrypto.RoleIATempKey, make([]byte, 16))
	reqBody, err := message.Marshal(message.GetRequest{
		EncUser:    f.pseudonym(t, f.uaKeys, "x"),
		EncTempKey: short,
	})
	if err != nil {
		t.Fatal(err)
	}
	framed, err := message.Marshal(iaGetCall{Handle: "h-bad", Body: reqBody})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.iaEncl.Ecall("ia/get", framed); !errors.Is(err, errEnclave) {
		t.Fatalf("err = %v, want errEnclave", err)
	}
	if f.iaEncl.KV().Len() != 0 {
		t.Error("rejected request still parked a key")
	}
}

func TestIAGetResponseTruncatesOversizedLists(t *testing.T) {
	f := newFixture(t)
	ku, encKu := f.tempKey(t)
	reqBody, _ := message.Marshal(message.GetRequest{
		EncUser:    f.pseudonym(t, f.uaKeys, "y"),
		EncTempKey: encKu,
	})
	framed, _ := message.Marshal(iaGetCall{Handle: "h-big", Body: reqBody})
	if _, err := f.iaEncl.Ecall("ia/get", framed); err != nil {
		t.Fatal(err)
	}

	items := make([]string, message.MaxRecommendations+5)
	for i := range items {
		items[i] = f.pseudonym(t, f.iaKeys, fmt.Sprintf("item-%d", i))
	}
	lrsResp, _ := message.Marshal(message.LRSGetResponse{Items: items})
	framedResp, _ := message.Marshal(iaGetCall{Handle: "h-big", Body: lrsResp})
	out, err := f.iaEncl.Ecall("ia/get-response", framedResp)
	if err != nil {
		t.Fatalf("oversized LRS list: %v", err)
	}
	var resp message.GetResponse
	if err := message.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	ct, _ := message.Decode64(resp.EncItems)
	packed, err := ppcrypto.SymDecrypt(ku, ct)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := message.DecodeItemList(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != message.MaxRecommendations {
		t.Errorf("returned %d items, want cap %d", len(decoded), message.MaxRecommendations)
	}
}

func TestIAGetResponseConstantSize(t *testing.T) {
	// §4.3: the encrypted response has constant size whether the LRS
	// returned 1 or 20 items.
	f := newFixture(t)
	sizes := map[int]bool{}
	for _, n := range []int{1, 7, message.MaxRecommendations} {
		_, encKu := f.tempKey(t)
		reqBody, _ := message.Marshal(message.GetRequest{
			EncUser:    f.pseudonym(t, f.uaKeys, "z"),
			EncTempKey: encKu,
		})
		handle := fmt.Sprintf("h-size-%d", n)
		framed, _ := message.Marshal(iaGetCall{Handle: handle, Body: reqBody})
		if _, err := f.iaEncl.Ecall("ia/get", framed); err != nil {
			t.Fatal(err)
		}
		items := make([]string, n)
		for i := range items {
			items[i] = f.pseudonym(t, f.iaKeys, fmt.Sprintf("i%d", i))
		}
		lrsResp, _ := message.Marshal(message.LRSGetResponse{Items: items})
		framedResp, _ := message.Marshal(iaGetCall{Handle: handle, Body: lrsResp})
		out, err := f.iaEncl.Ecall("ia/get-response", framedResp)
		if err != nil {
			t.Fatal(err)
		}
		var resp message.GetResponse
		if err := message.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		sizes[len(resp.EncItems)] = true
	}
	if len(sizes) != 1 {
		t.Errorf("response sizes vary with item count: %v", sizes)
	}
}

func TestIAIdentityForVariants(t *testing.T) {
	if IAIdentityFor(IAOptions{}) != IAIdentity {
		t.Error("default options must map to the standard identity")
	}
	if IAIdentityFor(IAOptions{DisableItemPseudonymization: true}) != IAIdentityNoItemPseudonyms {
		t.Error("disabled pseudonymization must map to its own measured identity")
	}
	if enclave.Measure(IAIdentity) == enclave.Measure(IAIdentityNoItemPseudonyms) {
		t.Error("the two IA variants share a measurement; attestation could not tell them apart")
	}
}

func TestIAGetCallFrameRoundTrip(t *testing.T) {
	body := json.RawMessage(`{"enc_user":"AAA"}`)
	framed, err := message.Marshal(iaGetCall{Handle: "h", Body: body})
	if err != nil {
		t.Fatal(err)
	}
	var got iaGetCall
	if err := message.Unmarshal(framed, &got); err != nil {
		t.Fatal(err)
	}
	if got.Handle != "h" || string(got.Body) != string(body) {
		t.Errorf("frame round trip: %+v", got)
	}
}

// recordingSecrets serves a layer's provisioned secrets and records which
// ones a handler asked for.
type recordingSecrets struct {
	mapSecrets
	asked []string
}

func (r *recordingSecrets) Derived(name string, build func([]byte) (any, error)) (any, error) {
	r.asked = append(r.asked, name)
	raw, ok := r.mapSecrets[name]
	if !ok {
		return nil, enclave.ErrNoSecret
	}
	return build(raw)
}

func secretsOf(t testing.TB, keys *LayerKeys) mapSecrets {
	t.Helper()
	m, err := keys.Secrets()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOpenPicksTheKeyByLength: the ciphertext's length names the one key
// open() asks the enclave for — never both, never one after the other.
func TestOpenPicksTheKeyByLength(t *testing.T) {
	box := newFixture(t)
	rsa := *box
	rsa.rsaOnly = true
	block, _ := ppcrypto.PadID("alice")
	boxField, rsaField := box.encFor(t, box.uaKeys, ppcrypto.RoleUAUser, "alice"), rsa.encFor(t, rsa.uaKeys, ppcrypto.RoleUAUser, "alice")

	both := secretsOf(t, box.uaKeys)
	rsaOnly := secretsOf(t, &LayerKeys{Pair: box.uaKeys.Pair, Permanent: box.uaKeys.Permanent})
	if _, ok := rsaOnly[SecretBoxKey]; ok {
		t.Fatal("RSA-only key material provisions a box key")
	}
	tenant := mapSecrets{}
	for name, v := range both {
		tenant[TenantSecret(name, "shop")] = v
	}

	for _, tc := range []struct {
		name    string
		secrets mapSecrets
		tenant  string
		field   string
		asks    string
		opens   bool
	}{
		{"both keys, box field", both, "", boxField, SecretBoxKey, true},
		{"both keys, RSA field", both, "", rsaField, SecretPrivateKey, true},
		{"RSA-only keys, RSA field", rsaOnly, "", rsaField, SecretPrivateKey, true},
		{"RSA-only keys, box field", rsaOnly, "", boxField, SecretBoxKey, false},
		{"tenant keys, box field", tenant, "shop", boxField, SecretBoxKey + "@shop", true},
		{"tenant keys, RSA field", tenant, "shop", rsaField, SecretPrivateKey + "@shop", true},
		{"another tenant's keys", tenant, "other", boxField, SecretBoxKey + "@other", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &recordingSecrets{mapSecrets: tc.secrets}
			got, err := open(s, tc.tenant, ppcrypto.RoleUAUser, tc.field)
			if len(s.asked) != 1 || s.asked[0] != tc.asks {
				t.Errorf("open asked for %v, want exactly [%s]", s.asked, tc.asks)
			}
			if !tc.opens {
				if !errors.Is(err, errEnclave) {
					t.Errorf("err = %v, want errEnclave", err)
				}
				return
			}
			if err != nil || string(got) != string(block) {
				t.Errorf("open = %x, %v; want the padded identifier", got, err)
			}
		})
	}
}

// FuzzOpen: whatever arrives in a field, open() neither panics nor looks
// at a key its length does not name, and nothing but a real ciphertext
// opens.
func FuzzOpen(f *testing.F) {
	keys, err := NewLayerKeys()
	if err != nil {
		f.Fatal(err)
	}
	secrets := secretsOf(f, keys)
	for _, n := range []int{0, 31, 32, 255, 256, 257} {
		f.Add(make([]byte, n))
	}
	block, _ := ppcrypto.PadID("alice")
	sealed, err := ppcrypto.SealBox(keys.Box.PublicKey(), ppcrypto.RoleUAUser, block)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Fuzz(func(t *testing.T, ct []byte) {
		s := &recordingSecrets{mapSecrets: secrets}
		want := SecretBoxKey
		if len(ct) == ppcrypto.RSACiphertextSize {
			want = SecretPrivateKey
		}
		_, err := open(s, "", ppcrypto.RoleIAItem, message.Encode64(ct))
		if !errors.Is(err, errEnclave) {
			t.Errorf("%d bytes nobody sealed as ia/item: err = %v, want errEnclave", len(ct), err)
		}
		if len(s.asked) != 1 || s.asked[0] != want {
			t.Errorf("%d bytes: open asked for %v, want exactly [%s]", len(ct), s.asked, want)
		}
	})
}
