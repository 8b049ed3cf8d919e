package proxy

import (
	"bytes"
	"crypto/aes"
	"errors"
	"testing"
	"time"

	"pprox/internal/enclave"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
)

// arrival_test.go covers what arrival-time processing added to the
// enclave-facing side of the layer: the epoch-scoped open crossing's EPC
// fallback, key material as enclave-resident state (parsed once per
// provisioning, replaced by the next one), and the allocation floors that
// keep a per-message parse from coming back.

// TestArrivalEPCFallback: a request whose buffer the open crossing cannot
// fit in the EPC is processed by a per-message ECALL instead — slower,
// never refused — and counted; the crossing's charge is returned when the
// epoch's crossings close.
func TestArrivalEPCFallback(t *testing.T) {
	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	id := enclave.CodeIdentity{Name: "arrival-unit", Version: "1.0"}
	e := enclave.NewPlatform(as).LaunchWithEPC(id, 4) // 1 page of secrets + 3 free
	e.Register(ecallUAGet, func(s enclave.Secrets, kv *enclave.KV, in []byte) ([]byte, error) {
		return in, nil
	})
	if err := enclave.AttestAndProvision(as, e, enclave.Measure(id), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	baseline, _ := e.EPCUsage()
	l, err := New(Config{Role: RoleUA, Next: "http://ia", Enclave: e, ShuffleSize: 4, Dialer: testDialer})
	if err != nil {
		t.Fatal(err)
	}

	body := bytes.Repeat([]byte{7}, 2*enclave.PageSize)
	for i := 0; i < 2; i++ { // the first fits the crossing, the second does not
		out, err := l.processArrival(body, true)
		if err != nil || !bytes.Equal(out, body) {
			t.Fatalf("arrival %d: err %v, body intact %v", i, err, bytes.Equal(out, body))
		}
	}
	if got := l.BatchStats().EPCFallbacks; got != 1 {
		t.Errorf("EPCFallbacks = %d, want 1", got)
	}
	if got := e.EcallCount(); got != 2 {
		t.Errorf("EcallCount = %d, want 2 (the open crossing + one per-message fallback)", got)
	}
	if used, _ := e.EPCUsage(); used != baseline+2 {
		t.Errorf("EPC pages while the epoch fills = %d, want %d", used, baseline+2)
	}
	l.closeCrossings()
	if used, _ := e.EPCUsage(); used != baseline {
		t.Errorf("EPC pages after the epoch's crossings closed = %d, want %d", used, baseline)
	}

	// After Close no flush will come to end a crossing, so an arrival
	// must not open one (nor spend a decryption on a request that the
	// closed shuffler will refuse anyway).
	l.Close()
	if _, err := l.processArrival([]byte("late"), true); !errors.Is(err, ErrShufflerClosed) {
		t.Errorf("arrival after Close: err = %v, want ErrShufflerClosed", err)
	}
	if got := e.EcallCount(); got != 2 {
		t.Errorf("EcallCount after a late arrival = %d, want 2 (nothing entered the enclave)", got)
	}
}

func (f *layerFixture) getRequest(t *testing.T, uaKeys *LayerKeys, user string) []byte {
	t.Helper()
	_, encKu := f.tempKey(t)
	in, err := message.Marshal(message.GetRequest{
		EncUser:    f.encFor(t, uaKeys, ppcrypto.RoleUAUser, user),
		EncTempKey: encKu,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestRotationReplacesResidentKeyOnNextMessage: the parsed private key is
// state derived from the provisioned secret, so re-provisioning must
// replace it at once — on the very next message, even one submitted to a
// crossing that was opened under the old keys, a ciphertext for the old
// key no longer decrypts and one for the fresh key does. Both resident
// keys are replaced, the box key as much as the RSA one.
func TestRotationReplacesResidentKeyOnNextMessage(t *testing.T) {
	eachSuite(t, testRotationReplacesResidentKeyOnNextMessage)
}

func testRotationReplacesResidentKeyOnNextMessage(t *testing.T, f *layerFixture) {
	e := NewUAEnclave(enclave.NewPlatform(f.as))
	fresh, err := NewLayerKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.uaKeys.Provision(f.as, e, UAIdentity); err != nil {
		t.Fatal(err)
	}
	oldReq, freshReq := f.getRequest(t, f.uaKeys, "carol"), f.getRequest(t, fresh, "carol")

	c, err := e.OpenBatch(ecallUAGet)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, herr, err := c.Submit(oldReq); herr != nil || err != nil {
		t.Fatalf("before rotation: %v / %v", herr, err)
	}
	if _, herr, _ := c.Submit(freshReq); !errors.Is(herr, errEnclave) {
		t.Fatalf("fresh-key ciphertext before rotation: err = %v, want errEnclave", herr)
	}

	if err := fresh.Provision(f.as, e, UAIdentity); err != nil {
		t.Fatal(err)
	}
	if _, herr, _ := c.Submit(oldReq); !errors.Is(herr, errEnclave) {
		t.Errorf("old-key ciphertext after rotation: err = %v, want errEnclave (stale resident key?)", herr)
	}
	out, herr, err := c.Submit(freshReq)
	if herr != nil || err != nil {
		t.Fatalf("fresh-key ciphertext on the first message after rotation: %v / %v", herr, err)
	}
	var got message.GetRequest
	if err := message.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.EncUser != f.pseudonym(t, fresh, "carol") {
		t.Error("pseudonym after rotation is not under the fresh permanent key")
	}
	if _, err := e.Ecall(ecallUAGet, oldReq); !errors.Is(err, errEnclave) {
		t.Errorf("per-message ECALL with the old key after rotation: err = %v, want errEnclave", err)
	}
}

// TestUAGetHandlerAllocationFloor: the ua/get handler may allocate a
// small constant beyond the RSA-OAEP decryption at its core (JSON in and
// out, base64, the pseudonym) — 18 when written. Parsing the PKCS#8 key
// per message costs 62 more, so a reintroduced parse fails here.
//
// A box request gets the same ceiling over OpenBox's own allocations, and
// OpenBox its own: 7 when written (the point, the shared secret, AES, GCM,
// the plaintext). The key derivation runs in fixed arrays
// (ppcrypto.hmacSHA256); crypto/hmac's ten objects per derivation would
// put a box request above the RSA one it replaces, and fail here.
func TestUAGetHandlerAllocationFloor(t *testing.T) {
	rsa, box := *newFixture(t), *newFixture(t)
	rsa.rsaOnly = true
	handlerAllocs := func(f *layerFixture) (handler float64, field []byte) {
		in := f.getRequest(t, f.uaKeys, "dave")
		field, err := message.Decode64(f.encFor(t, f.uaKeys, ppcrypto.RoleUAUser, "dave"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.uaEncl.Ecall(ecallUAGet, in); err != nil {
			t.Fatal(err) // also builds the resident key
		}
		return testing.AllocsPerRun(20, func() { f.uaEncl.Ecall(ecallUAGet, in) }), field
	}

	rsaHandler, ct := handlerAllocs(&rsa)
	oaep := testing.AllocsPerRun(20, func() { ppcrypto.DecryptOAEP(rsa.uaKeys.Pair.Private, ct) })
	if over := rsaHandler - oaep; over > 30 {
		t.Errorf("ua/get allocates %.0f per message, %.0f beyond OAEP's own %.0f; want ≤ 30 beyond (is the key parsed per message again?)",
			rsaHandler, over, oaep)
	}

	boxHandler, ct := handlerAllocs(&box)
	open := testing.AllocsPerRun(20, func() { ppcrypto.OpenBox(box.uaKeys.Box, ppcrypto.RoleUAUser, ct) })
	if over := boxHandler - open; over > 30 {
		t.Errorf("ua/get on a box allocates %.0f per message, %.0f beyond OpenBox's own %.0f; want ≤ 30 beyond",
			boxHandler, over, open)
	}
	if open > 12 {
		t.Errorf("OpenBox allocates %.0f per field, want ≤ 12 (is the key derivation on the heap again?)", open)
	}
}

// mapSecrets is a bare Secrets for calling handler helpers directly.
type mapSecrets map[string][]byte

func (m mapSecrets) Get(name string) ([]byte, bool) { v, ok := m[name]; return v, ok }

func (m mapSecrets) Derived(name string, build func([]byte) (any, error)) (any, error) {
	return build(m[name])
}

// TestMaybeUnwrapLinkParsesEnvelopeOnce: whether a body is an envelope
// follows from the key material, never from parsing the body. With the
// link key the raw envelope opens at no cost beyond unwrapLink's; without
// it the body passes unchanged.
func TestMaybeUnwrapLinkParsesEnvelopeOnce(t *testing.T) {
	key, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte(`{"enc_user":"dXNlcg==","enc_temp_key":"a2V5"}`)
	wrapped, err := wrapLink(key, plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrapped) != aes.BlockSize+len(plain) || bytes.Contains(wrapped, plain) {
		t.Fatalf("envelope is %d bytes, want the IV and the ciphertext of %d bytes", len(wrapped), len(plain))
	}
	s := mapSecrets{SecretLinkKey: key}
	if out, err := maybeUnwrapLink(s, wrapped); err != nil || !bytes.Equal(out, plain) {
		t.Fatalf("maybeUnwrapLink = %q, %v", out, err)
	}
	if out, err := maybeUnwrapLink(mapSecrets{}, plain); err != nil || !bytes.Equal(out, plain) {
		t.Fatalf("plain body without a link key = %q, %v", out, err)
	}
	open := testing.AllocsPerRun(50, func() { unwrapLink(key, wrapped) })
	sniffAndOpen := testing.AllocsPerRun(50, func() { maybeUnwrapLink(s, wrapped) })
	if sniffAndOpen > open {
		t.Errorf("maybeUnwrapLink allocates %.0f, unwrapLink %.0f: the body is inspected before it is opened", sniffAndOpen, open)
	}
}

// TestEcallDecryptObjective pins the derivation of the per-message
// ecall_decrypt objective: ⌈S/2⌉ handler runs (the layer's two workers)
// at 2.5 ms plus ten modeled transitions, floored at 25 ms.
func TestEcallDecryptObjective(t *testing.T) {
	cases := []struct {
		shuffle int
		cost    time.Duration
		want    time.Duration
	}{
		{0, 0, 25 * time.Millisecond},                        // no shuffler: the floor
		{10, 0, 25 * time.Millisecond},                       // 12.5 ms of queue: still the floor
		{32, 100 * time.Microsecond, 41 * time.Millisecond},  // 16 runs + 1 ms
		{10, 5 * time.Millisecond, 62500 * time.Microsecond}, // transitions dominate
	}
	for _, c := range cases {
		if got := EcallDecryptObjective(c.shuffle, c.cost); got != c.want {
			t.Errorf("EcallDecryptObjective(S=%d, cost=%v) = %v, want %v",
				c.shuffle, c.cost, got, c.want)
		}
	}
}
