package proxy

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/base64"
	"encoding/json"
	"strings"
	"testing"

	"pprox/internal/ppcrypto"
)

func testLayerKeysPair(t *testing.T) (*LayerKeys, *LayerKeys) {
	t.Helper()
	f := newFixture(t) // reuse the slow-to-generate shared keys
	return f.uaKeys, f.iaKeys
}

func TestKeyFileRoundTrip(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	gotUA, gotIA, err := UnmarshalKeyFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotUA.Pair.Private.D.Cmp(ua.Pair.Private.D) != 0 {
		t.Error("UA private key round trip mismatch")
	}
	if gotIA.Pair.Private.D.Cmp(ia.Pair.Private.D) != 0 {
		t.Error("IA private key round trip mismatch")
	}
	if string(gotUA.Permanent) != string(ua.Permanent) || string(gotIA.Permanent) != string(ia.Permanent) {
		t.Error("permanent key round trip mismatch")
	}
	if !gotUA.Box.Equal(ua.Box) || !gotIA.Box.Equal(ia.Box) {
		t.Error("box key round trip mismatch")
	}
}

// rsaOnly is the fixture's key material as a key file written before the
// box suite (or by pprox-keygen -rsa-only) holds it.
func rsaOnly(lk *LayerKeys) *LayerKeys {
	return &LayerKeys{Pair: lk.Pair, Permanent: lk.Permanent, LinkKey: lk.LinkKey}
}

// boxField reports whether a key or bundle file names a box field. Every
// box field name holds "box_", which standard base64 cannot: its alphabet
// has no underscore, so a key that happens to encode to "...box..." does
// not count.
func boxField(data []byte) bool {
	return bytes.Contains(data, []byte("box_"))
}

// TestRSAOnlyFilesStillLoad: key and bundle files without the box fields —
// every file in the field when this version ships — load as RSA-only
// material, and writing that material back adds nothing to them.
func TestRSAOnlyFilesStillLoad(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	ua, ia = rsaOnly(ua), rsaOnly(ia)
	data, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	if boxField(data) {
		t.Errorf("RSA-only key file mentions a box key:\n%s", data)
	}
	gotUA, gotIA, err := UnmarshalKeyFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotUA.Box != nil || gotIA.Box != nil {
		t.Error("RSA-only key file loaded with a box key")
	}
	if gotUA.Pair.Private.D.Cmp(ua.Pair.Private.D) != 0 {
		t.Error("UA private key round trip mismatch")
	}
	if secrets, err := gotUA.Secrets(); err != nil || secrets[SecretBoxKey] != nil {
		t.Errorf("RSA-only material provisions a box secret (err %v)", err)
	}

	bundle, err := MarshalBundleFile(Bundle(ua, ia))
	if err != nil {
		t.Fatal(err)
	}
	if boxField(bundle) {
		t.Errorf("RSA-only bundle file mentions a box key:\n%s", bundle)
	}
	got, err := UnmarshalBundleFile(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if got.UABox != nil || got.IABox != nil || got.UAPublic.N.Cmp(ua.Pair.Public.N) != 0 {
		t.Error("RSA-only bundle round trip mismatch")
	}
}

// TestKeyFilesAreValidatedAtLoad: a key the code cannot serve is refused
// when the file is read, with a message naming the field — not accepted
// and then answered with an opaque 400 on every request.
func TestKeyFilesAreValidatedAtLoad(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	good, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	goodBundle, err := MarshalBundleFile(Bundle(ua, ia))
	if err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString
	rsaDER := func(bits int) (priv, pub string) {
		k, err := rsa.GenerateKey(rand.Reader, bits)
		if err != nil {
			t.Fatal(err)
		}
		privDER, err := ppcrypto.MarshalPrivateKey(k)
		if err != nil {
			t.Fatal(err)
		}
		pubDER, err := ppcrypto.MarshalPublicKey(&k.PublicKey)
		if err != nil {
			t.Fatal(err)
		}
		return b64(privDER), b64(pubDER)
	}
	small, smallPub := rsaDER(1024)
	large, largePub := rsaDER(3072)
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

	for _, tc := range []struct {
		name   string
		mutate func(*KeyFile)
		want   []string // all must appear in the error
	}{
		{"1024-bit UA modulus", func(kf *KeyFile) { kf.UA.PrivateKeyDER = small }, []string{"UA", "private_key_der", "1024", "2048"}},
		{"3072-bit IA modulus", func(kf *KeyFile) { kf.IA.PrivateKeyDER = large }, []string{"IA", "private_key_der", "3072", "2048"}},
		{"RSA key as box key", func(kf *KeyFile) { kf.UA.BoxKeyDER = kf.UA.PrivateKeyDER }, []string{"UA", "box_key_der", "X25519"}},
		{"P-256 key as box key", func(kf *KeyFile) { kf.IA.BoxKeyDER = b64(p256Priv) }, []string{"IA", "box_key_der", "X25519"}},
		{"box key is not base64", func(kf *KeyFile) { kf.IA.BoxKeyDER = "!!" }, []string{"IA", "box_key_der"}},
		{"only the UA carries a box key", func(kf *KeyFile) { kf.IA.BoxKeyDER = "" }, []string{"box_key_der", "one layer"}},
		{"only the IA carries a box key", func(kf *KeyFile) { kf.UA.BoxKeyDER = "" }, []string{"box_key_der", "one layer"}},
		{"both layers hold one RSA key", func(kf *KeyFile) { kf.IA.PrivateKeyDER = kf.UA.PrivateKeyDER }, []string{"ua.private_key_der", "ia.private_key_der", "same key"}},
		{"both layers hold one box key", func(kf *KeyFile) { kf.IA.BoxKeyDER = kf.UA.BoxKeyDER }, []string{"ua.box_key_der", "ia.box_key_der", "same key"}},
	} {
		t.Run("keys/"+tc.name, func(t *testing.T) {
			var kf KeyFile
			if err := json.Unmarshal(good, &kf); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&kf)
			bad, err := json.Marshal(kf)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = UnmarshalKeyFile(bad)
			assertErrorNames(t, err, tc.want)
		})
	}

	for _, tc := range []struct {
		name   string
		mutate func(*BundleFile)
		want   []string
	}{
		{"1024-bit UA modulus", func(bf *BundleFile) { bf.UAPublicDER = smallPub }, []string{"ua_public_der", "1024", "2048"}},
		{"3072-bit IA modulus", func(bf *BundleFile) { bf.IAPublicDER = largePub }, []string{"ia_public_der", "3072", "2048"}},
		{"RSA key as box key", func(bf *BundleFile) { bf.UABoxDER = bf.UAPublicDER }, []string{"ua_box_der", "X25519"}},
		{"P-256 key as box key", func(bf *BundleFile) { bf.IABoxDER = b64(p256Pub) }, []string{"ia_box_der", "X25519"}},
		{"only the UA's box key", func(bf *BundleFile) { bf.IABoxDER = "" }, []string{"ua_box_der", "ia_box_der"}},
		{"one RSA key for both layers", func(bf *BundleFile) { bf.IAPublicDER = bf.UAPublicDER }, []string{"ua_public_der", "ia_public_der", "same key"}},
		{"one box key for both layers", func(bf *BundleFile) { bf.IABoxDER = bf.UABoxDER }, []string{"ua_box_der", "ia_box_der", "same key"}},
	} {
		t.Run("bundle/"+tc.name, func(t *testing.T) {
			var bf BundleFile
			if err := json.Unmarshal(goodBundle, &bf); err != nil {
				t.Fatal(err)
			}
			tc.mutate(&bf)
			bad, err := json.Marshal(bf)
			if err != nil {
				t.Fatal(err)
			}
			_, err = UnmarshalBundleFile(bad)
			assertErrorNames(t, err, tc.want)
		})
	}
}

func assertErrorNames(t *testing.T, err error, want []string) {
	t.Helper()
	if err == nil {
		t.Fatal("file accepted")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("error %q does not mention %q", err, w)
		}
	}
}

func TestKeyFileInterops(t *testing.T) {
	// A pseudonym computed with the original keys must equal one
	// computed with the round-tripped keys (provisioning different
	// instances from the file yields one consistent layer).
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	gotUA, _, err := UnmarshalKeyFile(data)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := ppcrypto.Pseudonymize(ua.Permanent, "user-1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ppcrypto.Pseudonymize(gotUA.Permanent, "user-1")
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != string(p2) {
		t.Error("round-tripped keys produce different pseudonyms")
	}
}

func TestKeyFileRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"not json", "{"},
		{"bad base64 private", `{"ua":{"private_key_der":"!!","permanent_key":"AAAA"},"ia":{"private_key_der":"!!","permanent_key":"AAAA"}}`},
		{"bad der", `{"ua":{"private_key_der":"AAAA","permanent_key":"AAAA"},"ia":{"private_key_der":"AAAA","permanent_key":"AAAA"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := UnmarshalKeyFile([]byte(tc.data)); err == nil {
				t.Error("malformed key file accepted")
			}
		})
	}
}

func TestKeyFileRejectsShortPermanentKey(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalKeyFile(ua, ia)
	if err != nil {
		t.Fatal(err)
	}
	var kf KeyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		t.Fatal(err)
	}
	kf.UA.PermanentKey = "AAAA" // 3 bytes
	bad, err := json.Marshal(kf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnmarshalKeyFile(bad); err == nil || !strings.Contains(err.Error(), "permanent key") {
		t.Errorf("short permanent key accepted: %v", err)
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalBundleFile(Bundle(ua, ia))
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBundleFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.UAPublic.N.Cmp(ua.Pair.Public.N) != 0 || got.IAPublic.N.Cmp(ia.Pair.Public.N) != 0 {
		t.Error("bundle round trip mismatch")
	}
	if !got.UABox.Equal(ua.Box.PublicKey()) || !got.IABox.Equal(ia.Box.PublicKey()) {
		t.Error("bundle box key round trip mismatch")
	}
}

func TestBundleFileContainsNoSecrets(t *testing.T) {
	ua, ia := testLayerKeysPair(t)
	data, err := MarshalBundleFile(Bundle(ua, ia))
	if err != nil {
		t.Fatal(err)
	}
	privUA, err := ppcrypto.MarshalPrivateKey(ua.Pair.Private)
	if err != nil {
		t.Fatal(err)
	}
	// Neither a private key fragment nor a permanent key may appear in
	// the client-side bundle.
	if strings.Contains(string(data), string(ua.Permanent)) {
		t.Error("permanent key bytes in the public bundle")
	}
	if len(privUA) > 64 && strings.Contains(string(data), string(privUA[:64])) {
		t.Error("private key material in the public bundle")
	}
	var bf BundleFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{bf.UAPublicDER, bf.IAPublicDER, bf.UABoxDER, bf.IABoxDER} {
		der, err := base64.StdEncoding.DecodeString(field)
		if err != nil || len(der) == 0 {
			t.Fatalf("bundle field does not decode: %v", err)
		}
		if bytes.Contains(der, ua.Box.Bytes()) || bytes.Contains(der, ia.Box.Bytes()) {
			t.Error("box private key in the public bundle")
		}
	}
}

func TestBundleFileRejectsMalformed(t *testing.T) {
	for _, data := range []string{"{", `{"ua_public_der":"!!","ia_public_der":"AAAA"}`, `{"ua_public_der":"AAAA","ia_public_der":"AAAA"}`} {
		if _, err := UnmarshalBundleFile([]byte(data)); err == nil {
			t.Errorf("malformed bundle accepted: %s", data)
		}
	}
}
