package ppcrypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"
)

func mustBoxKey(t testing.TB) *ecdh.PrivateKey {
	t.Helper()
	k, err := GenerateBoxKey()
	if err != nil {
		t.Fatalf("GenerateBoxKey: %v", err)
	}
	return k
}

func mustSeal(t testing.TB, k *ecdh.PrivateKey, role Role, plain []byte) []byte {
	t.Helper()
	box, err := SealBox(k.PublicKey(), role, plain)
	if err != nil {
		t.Fatalf("SealBox: %v", err)
	}
	return box
}

func TestBoxRoundTripAndConstantLength(t *testing.T) {
	k := mustBoxKey(t)
	ku := mustKey(t)
	short, _ := PadID("u")
	long, _ := PadID("a-much-longer-user-identifier-string")
	for _, tc := range []struct {
		role  Role
		plain []byte
		want  int
	}{
		{RoleUAUser, short, 112},
		{RoleUAUser, long, 112},
		{RoleIAItem, long, 112},
		{RoleIATempKey, ku, 80},
	} {
		box := mustSeal(t, k, tc.role, tc.plain)
		if len(box) != tc.want || len(box) != len(tc.plain)+BoxOverhead {
			t.Errorf("%s: box is %d bytes, want %d", tc.role, len(box), tc.want)
		}
		got, err := OpenBox(k, tc.role, box)
		if err != nil {
			t.Fatalf("%s: OpenBox: %v", tc.role, err)
		}
		if !bytes.Equal(got, tc.plain) {
			t.Errorf("%s: round trip changed the plaintext", tc.role)
		}
	}
}

func TestBoxIsRandomized(t *testing.T) {
	k := mustBoxKey(t)
	block, _ := PadID("user-42")
	a, b := mustSeal(t, k, RoleUAUser, block), mustSeal(t, k, RoleUAUser, block)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of one plaintext are identical: a box could serve as a pseudonym")
	}
	if bytes.Equal(a[:boxPointSize], b[:boxPointSize]) {
		t.Error("two seals share an ephemeral key")
	}
	if bytes.Equal(a[boxPointSize:], b[boxPointSize:]) {
		t.Error("two seals share a body: the single-use key was used twice")
	}
}

// Every bit of a box is authenticated: the ephemeral key through the
// derivation (another point, another key), body and tag through GCM. Even
// bit 255 of the u-coordinate, which X25519 masks (RFC 7748 §5) so that the
// flip names the same point: the salt holds the bytes as sent.
func TestBoxRejectsAnyFlippedBit(t *testing.T) {
	k := mustBoxKey(t)
	block, _ := PadID("user-42")
	box := mustSeal(t, k, RoleUAUser, block)
	for i := 0; i < len(box)*8; i++ {
		mod := append([]byte(nil), box...)
		mod[i/8] ^= 1 << (i % 8)
		if _, err := OpenBox(k, RoleUAUser, mod); !errors.Is(err, ErrBox) {
			t.Fatalf("bit %d (byte %d) flipped and the box opened (err %v)", i, i/8, err)
		}
	}
}

func TestBoxIsBoundToRoleAndKey(t *testing.T) {
	ua, ia := mustBoxKey(t), mustBoxKey(t)
	block, _ := PadID("item-7")
	item := mustSeal(t, ia, RoleIAItem, block)
	if _, err := OpenBox(ia, RoleIATempKey, item); !errors.Is(err, ErrBox) {
		t.Errorf("an ia/item box opened as ia/tempkey (err %v)", err)
	}
	if _, err := OpenBox(ia, RoleUAUser, item); !errors.Is(err, ErrBox) {
		t.Errorf("an ia/item box opened as ua/user (err %v)", err)
	}
	user := mustSeal(t, ua, RoleUAUser, block)
	if _, err := OpenBox(ia, RoleUAUser, user); !errors.Is(err, ErrBox) {
		t.Errorf("a box for the UA key opened under the IA key (err %v)", err)
	}
	if _, err := OpenBox(ua, RoleUAUser, user); err != nil {
		t.Errorf("control: the UA's own box does not open: %v", err)
	}
}

// lowOrderPoints are the encodings of Curve25519's small-subgroup points
// (and their non-canonical aliases): the shared secret with any of them is
// all-zero whatever the private key, so the sender would know the key.
var lowOrderPoints = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0100000000000000000000000000000000000000000000000000000000000000",
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
}

func TestBoxRejectsLowOrderEphemeralPoints(t *testing.T) {
	k := mustBoxKey(t)
	for _, h := range lowOrderPoints {
		point, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		// What an attacker would send: the point, and a body sealed under
		// the key an all-zero shared secret derives.
		aead, err := boxAEAD(point, k.PublicKey().Bytes(), make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		box := aead.Seal(point, boxNonce[:], make([]byte, IDBlockSize), []byte(RoleUAUser))
		if _, err := OpenBox(k, RoleUAUser, box); !errors.Is(err, ErrBox) {
			t.Errorf("low-order point %s…: box opened (err %v)", h[:8], err)
		}
	}
}

func TestOpenBoxRejectsShortInput(t *testing.T) {
	k := mustBoxKey(t)
	for _, n := range []int{0, 1, 31, 32, 47} {
		if _, err := OpenBox(k, RoleUAUser, make([]byte, n)); !errors.Is(err, ErrBox) {
			t.Errorf("%d-byte box: err %v, want ErrBox", n, err)
		}
	}
	// The shortest well-formed box carries an empty plaintext.
	box := mustSeal(t, k, RoleUAUser, nil)
	if got, err := OpenBox(k, RoleUAUser, box); err != nil || len(got) != 0 || len(box) != BoxOverhead {
		t.Errorf("empty box: %d bytes, plaintext %d bytes, err %v", len(box), len(got), err)
	}
}

func FuzzOpenBox(f *testing.F) {
	k := mustBoxKey(f)
	block, _ := PadID("user-42")
	f.Add(mustSeal(f, k, RoleUAUser, block))
	for _, n := range []int{0, 31, 32, 47, 48, 255, 256, 257} {
		f.Add(make([]byte, n))
	}
	f.Fuzz(func(t *testing.T, box []byte) {
		pt, err := OpenBox(k, RoleIAItem, box)
		if err == nil {
			t.Fatalf("a %d-byte input nobody sealed for ia/item opened to %d bytes", len(box), len(pt))
		}
		if !errors.Is(err, ErrBox) {
			t.Fatalf("error %v is not ErrBox", err)
		}
	})
}

// TestSealPairFollowsTheKeys: each field is a box when its layer has a
// box key and an OAEP block otherwise, whatever the other field is.
func TestSealPairFollowsTheKeys(t *testing.T) {
	k := mustBoxKey(t)
	block, _ := PadID("user-42")
	ku := mustKey(t)
	boxField := Field{Box: k.PublicKey(), RSA: testKeyPair.Public, Role: RoleUAUser, Plain: block}
	rsaField := Field{RSA: testKeyPair.Public, Role: RoleIATempKey, Plain: ku}
	boxCt, rsaCt, err := SealPair(boxField, rsaField)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBox(k, RoleUAUser, boxCt); err != nil {
		t.Errorf("with a box key the field is not a box: %v", err)
	}
	if _, err := DecryptOAEP(testKeyPair.Private, rsaCt); err != nil {
		t.Errorf("without a box key the field is not an OAEP block: %v", err)
	}
}

// TestSealPairOpensEachFieldForItsRecipientOnly: the two boxes of a pair
// share their ephemeral point, and still each opens under its own key and
// role only — swapping keys or roles fails the tag.
func TestSealPairOpensEachFieldForItsRecipientOnly(t *testing.T) {
	ua, ia := mustBoxKey(t), mustBoxKey(t)
	user, _ := PadID("user-42")
	ku := mustKey(t)
	encUser, encKu, err := SealPair(
		Field{Box: ua.PublicKey(), Role: RoleUAUser, Plain: user},
		Field{Box: ia.PublicKey(), Role: RoleIATempKey, Plain: ku})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encUser[:boxPointSize], encKu[:boxPointSize]) {
		t.Error("the two fields of one request carry different ephemeral points")
	}
	if len(encUser) != len(mustSeal(t, ua, RoleUAUser, user)) || len(encKu) != len(mustSeal(t, ia, RoleIATempKey, ku)) {
		t.Errorf("pair lengths %d/%d differ from two SealBox calls", len(encUser), len(encKu))
	}
	for _, tc := range []struct {
		name  string
		key   *ecdh.PrivateKey
		role  Role
		box   []byte
		plain []byte // nil: must not open
	}{
		{"ua field, ua key", ua, RoleUAUser, encUser, user},
		{"ia field, ia key", ia, RoleIATempKey, encKu, ku},
		{"ua field, ia key", ia, RoleUAUser, encUser, nil},
		{"ia field, ua key", ua, RoleIATempKey, encKu, nil},
		{"ua field, ia role", ua, RoleIATempKey, encUser, nil},
		{"ia field, ua role", ia, RoleUAUser, encKu, nil},
		{"ia field, item role", ia, RoleIAItem, encKu, nil},
	} {
		got, err := OpenBox(tc.key, tc.role, tc.box)
		switch {
		case tc.plain == nil && !errors.Is(err, ErrBox):
			t.Errorf("%s: opened (err %v)", tc.name, err)
		case tc.plain != nil && (err != nil || !bytes.Equal(got, tc.plain)):
			t.Errorf("%s: does not open to its plaintext (err %v)", tc.name, err)
		}
	}
}

// TestSealPairRefusesOneRecipientTwice: two fields for one key would let
// its holder read both, and two boxes would share one AES key under the
// zero nonce.
func TestSealPairRefusesOneRecipientTwice(t *testing.T) {
	k := mustBoxKey(t)
	block, _ := PadID("user-42")
	same := Field{Box: k.PublicKey(), Role: RoleUAUser, Plain: block}
	twin := Field{Box: k.PublicKey(), Role: RoleIATempKey, Plain: mustKey(t)}
	if _, _, err := SealPair(same, twin); !errors.Is(err, ErrSameRecipient) {
		t.Errorf("SealPair(k, k) on box keys: err %v, want ErrSameRecipient", err)
	}
	rsaField := Field{RSA: testKeyPair.Public, Role: RoleUAUser, Plain: block}
	if _, _, err := SealPair(rsaField, rsaField); !errors.Is(err, ErrSameRecipient) {
		t.Errorf("SealPair(k, k) on RSA keys: err %v, want ErrSameRecipient", err)
	}
}

// rfc5869 is HKDF written over crypto/hmac, the reference the stack
// version is held against.
func rfc5869(salt, ikm, info []byte) []byte {
	ext := hmac.New(sha256.New, salt)
	ext.Write(ikm)
	exp := hmac.New(sha256.New, ext.Sum(nil))
	exp.Write(info)
	exp.Write([]byte{1})
	return exp.Sum(nil)
}

func TestHKDFMatchesRFC5869(t *testing.T) {
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// RFC 5869 appendix A, SHA-256 cases; OKM truncated to its first
	// block T(1), which does not depend on the requested length.
	for i, v := range []struct{ ikm, salt, info, okm string }{
		{ // A.1
			"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "000102030405060708090a0b0c", "f0f1f2f3f4f5f6f7f8f9",
			"3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf",
		},
		{ // A.2: salt and info longer than a block
			"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f",
			"606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeaf",
			"b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff",
			"b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c",
		},
		{ // A.3: empty salt and info
			"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "", "",
			"8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d",
		},
	} {
		got := hkdfSHA256(unhex(v.salt), unhex(v.ikm), string(unhex(v.info)))
		if hex.EncodeToString(got[:]) != v.okm {
			t.Errorf("vector A.%d: T(1) = %x, want %s", i+1, got, v.okm)
		}
		if ref := rfc5869(unhex(v.salt), unhex(v.ikm), unhex(v.info)); !bytes.Equal(ref, got[:]) {
			t.Errorf("vector A.%d: crypto/hmac reference disagrees", i+1)
		}
	}
	if err := quick.Check(func(salt, ikm, info []byte) bool {
		got := hkdfSHA256(salt, ikm, string(info))
		return bytes.Equal(got[:], rfc5869(salt, ikm, info))
	}, nil); err != nil {
		t.Errorf("stack HKDF and the crypto/hmac reference disagree: %v", err)
	}
}

// The derivation runs four times a request; it must not reach the heap on
// a box's own inputs (64-byte salt, 32-byte secret, the fixed info).
func TestHKDFStaysOnTheStack(t *testing.T) {
	salt, ikm := make([]byte, 2*boxPointSize), make([]byte, 32)
	if n := testing.AllocsPerRun(100, func() { hkdfSHA256(salt, ikm, boxInfo) }); n != 0 {
		t.Errorf("hkdfSHA256 allocates %v objects per call, want 0", n)
	}
}

func TestBoxKeyMarshalRoundTrip(t *testing.T) {
	k := mustBoxKey(t)
	privDER, err := MarshalBoxPrivateKey(k)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := UnmarshalBoxPrivateKey(privDER)
	if err != nil || !priv.Equal(k) {
		t.Fatalf("private key round trip: equal %v, err %v", err == nil && priv.Equal(k), err)
	}
	pubDER, err := MarshalBoxPublicKey(k.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	pub, err := UnmarshalBoxPublicKey(pubDER)
	if err != nil || !pub.Equal(k.PublicKey()) {
		t.Fatalf("public key round trip: err %v", err)
	}
}

func TestBoxKeyUnmarshalRejectsOtherKeyTypes(t *testing.T) {
	rsaPriv, err := MarshalPrivateKey(testKeyPair.Private)
	if err != nil {
		t.Fatal(err)
	}
	rsaPub, err := MarshalPublicKey(testKeyPair.Public)
	if err != nil {
		t.Fatal(err)
	}
	p256, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p256Priv, err := x509.MarshalPKCS8PrivateKey(p256)
	if err != nil {
		t.Fatal(err)
	}
	p256Pub, err := x509.MarshalPKIXPublicKey(p256.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	for name, der := range map[string][]byte{"garbage": []byte("not DER"), "rsa": rsaPriv, "p-256": p256Priv} {
		if _, err := UnmarshalBoxPrivateKey(der); err == nil {
			t.Errorf("UnmarshalBoxPrivateKey accepted a %s key", name)
		}
	}
	for name, der := range map[string][]byte{"garbage": []byte("not DER"), "rsa": rsaPub, "p-256": p256Pub} {
		if _, err := UnmarshalBoxPublicKey(der); err == nil {
			t.Errorf("UnmarshalBoxPublicKey accepted a %s key", name)
		}
	}
	// And the other way: an X25519 key is not an RSA layer key.
	k := mustBoxKey(t)
	der, _ := MarshalBoxPrivateKey(k)
	if _, err := UnmarshalPrivateKey(der); err == nil {
		t.Error("UnmarshalPrivateKey accepted an X25519 key")
	}
}
