package proxy

import (
	"crypto/ecdh"
	"crypto/rsa"
	"encoding/base64"
	"encoding/json"
	"fmt"

	"pprox/internal/ppcrypto"
)

// keyfile.go serializes key material for the cmd/ binaries and the
// examples: the RaaS client application generates layer keys with
// pprox-keygen, provisions the proxy processes with the full file, and
// embeds only the public bundle in its front end.

// KeyFile is the JSON form of both layers' full key material. It is held
// by the RaaS client application only; proxy layer processes receive it
// at start-up to provision their enclaves.
type KeyFile struct {
	UA LayerKeyJSON `json:"ua"`
	IA LayerKeyJSON `json:"ia"`
	// LinkKey is the shared hop-envelope key (base64, optional). It sits
	// at the top level rather than per layer because it is one key held
	// by both enclaves; see LayerKeys.LinkKey.
	LinkKey string `json:"link_key,omitempty"`
}

// LayerKeyJSON is one layer's key material in serialized form.
type LayerKeyJSON struct {
	// PrivateKeyDER is the PKCS#8 RSA private key, base64.
	PrivateKeyDER string `json:"private_key_der"`
	// BoxKeyDER is the PKCS#8 X25519 private key, base64. Absent in key
	// files written before the box suite and in paper-faithful ones
	// (pprox-keygen -rsa-only); both layers carry it or neither does.
	BoxKeyDER string `json:"box_key_der,omitempty"`
	// PermanentKey is the 32-byte pseudonymization key, base64.
	PermanentKey string `json:"permanent_key"`
}

// BundleFile is the JSON form of the public bundle embedded in the
// user-side library.
type BundleFile struct {
	// UAPublicDER and IAPublicDER are PKIX RSA public keys, base64.
	UAPublicDER string `json:"ua_public_der"`
	IAPublicDER string `json:"ia_public_der"`
	// UABoxDER and IABoxDER are PKIX X25519 public keys, base64; both
	// present or both absent (an RSA-only bundle).
	UABoxDER string `json:"ua_box_der,omitempty"`
	IABoxDER string `json:"ia_box_der,omitempty"`
}

// MarshalKeyFile serializes both layers' keys. A link key is taken from
// either layer (they hold the same one; PairLinkKey guarantees it).
func MarshalKeyFile(ua, ia *LayerKeys) ([]byte, error) {
	uaJSON, err := layerToJSON(ua)
	if err != nil {
		return nil, err
	}
	iaJSON, err := layerToJSON(ia)
	if err != nil {
		return nil, err
	}
	kf := KeyFile{UA: uaJSON, IA: iaJSON}
	if link := firstKey(ua.LinkKey, ia.LinkKey); len(link) > 0 {
		kf.LinkKey = base64.StdEncoding.EncodeToString(link)
	}
	return json.MarshalIndent(kf, "", "  ")
}

func firstKey(keys ...[]byte) []byte {
	for _, k := range keys {
		if len(k) > 0 {
			return k
		}
	}
	return nil
}

func layerToJSON(lk *LayerKeys) (LayerKeyJSON, error) {
	der, err := ppcrypto.MarshalPrivateKey(lk.Pair.Private)
	if err != nil {
		return LayerKeyJSON{}, err
	}
	lj := LayerKeyJSON{
		PrivateKeyDER: base64.StdEncoding.EncodeToString(der),
		PermanentKey:  base64.StdEncoding.EncodeToString(lk.Permanent),
	}
	if lk.Box != nil {
		boxDER, err := ppcrypto.MarshalBoxPrivateKey(lk.Box)
		if err != nil {
			return LayerKeyJSON{}, err
		}
		lj.BoxKeyDER = base64.StdEncoding.EncodeToString(boxDER)
	}
	return lj, nil
}

// checkModulus rejects an RSA key of another size than the code is built
// for: DecryptOAEP accepts RSACiphertextSize-byte blocks only, so such a
// key would load and then fail every request with an opaque 400.
func checkModulus(pub *rsa.PublicKey) error {
	if bits := pub.N.BitLen(); bits != ppcrypto.RSABits {
		return fmt.Errorf("RSA modulus is %d bits, want %d", bits, ppcrypto.RSABits)
	}
	return nil
}

// UnmarshalKeyFile parses a key file back into both layers' keys.
func UnmarshalKeyFile(data []byte) (ua, ia *LayerKeys, err error) {
	var kf KeyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return nil, nil, fmt.Errorf("parse key file: %w", err)
	}
	if ua, err = layerFromJSON(kf.UA); err != nil {
		return nil, nil, fmt.Errorf("UA keys: %w", err)
	}
	if ia, err = layerFromJSON(kf.IA); err != nil {
		return nil, nil, fmt.Errorf("IA keys: %w", err)
	}
	if (ua.Box == nil) != (ia.Box == nil) {
		return nil, nil, fmt.Errorf("key file: box_key_der is set for one layer only (ua: %t, ia: %t); a deployment runs one kind of key material",
			ua.Box != nil, ia.Box != nil)
	}
	if ua.Pair.Public.Equal(ia.Pair.Public) {
		return nil, nil, errSharedKey("key file", "ua.private_key_der", "ia.private_key_der")
	}
	if ua.Box != nil && ua.Box.Equal(ia.Box) {
		return nil, nil, errSharedKey("key file", "ua.box_key_der", "ia.box_key_der")
	}
	if kf.LinkKey != "" {
		link, err := base64.StdEncoding.DecodeString(kf.LinkKey)
		if err != nil {
			return nil, nil, fmt.Errorf("decode link key: %w", err)
		}
		if len(link) != ppcrypto.SymmetricKeySize {
			return nil, nil, fmt.Errorf("link key is %d bytes, want %d", len(link), ppcrypto.SymmetricKeySize)
		}
		ua.LinkKey = link
		ia.LinkKey = append([]byte(nil), link...)
	}
	return ua, ia, nil
}

func layerFromJSON(lj LayerKeyJSON) (*LayerKeys, error) {
	priv, err := keyFromField("private_key_der", lj.PrivateKeyDER, ppcrypto.UnmarshalPrivateKey)
	if err != nil {
		return nil, err
	}
	if err := checkModulus(&priv.PublicKey); err != nil {
		return nil, fmt.Errorf("private_key_der: %w", err)
	}
	var box *ecdh.PrivateKey
	if lj.BoxKeyDER != "" {
		if box, err = keyFromField("box_key_der", lj.BoxKeyDER, ppcrypto.UnmarshalBoxPrivateKey); err != nil {
			return nil, err
		}
	}
	perm, err := base64.StdEncoding.DecodeString(lj.PermanentKey)
	if err != nil {
		return nil, fmt.Errorf("decode permanent key: %w", err)
	}
	if len(perm) != ppcrypto.SymmetricKeySize {
		return nil, fmt.Errorf("permanent key is %d bytes, want %d", len(perm), ppcrypto.SymmetricKeySize)
	}
	return &LayerKeys{
		Pair:      &ppcrypto.KeyPair{Private: priv, Public: &priv.PublicKey},
		Box:       box,
		Permanent: perm,
	}, nil
}

// errSharedKey refuses a file whose two layers hold one key: the IA could
// then open every field sealed for the UA, and the client would seal its
// two boxes under one AES key.
func errSharedKey(file, uaField, iaField string) error {
	return fmt.Errorf("%s: %s and %s are the same key; each layer needs its own", file, uaField, iaField)
}

// keyFromField decodes one base64 DER key of a key or bundle file; its
// errors name the JSON field.
func keyFromField[K any](field, b64 string, parse func(der []byte) (K, error)) (K, error) {
	der, err := base64.StdEncoding.DecodeString(b64)
	if err == nil {
		var key K
		if key, err = parse(der); err == nil {
			return key, nil
		}
	}
	var none K
	return none, fmt.Errorf("%s: %w", field, err)
}

// MarshalBundleFile serializes the public bundle.
func MarshalBundleFile(b PublicBundle) ([]byte, error) {
	uaDER, err := ppcrypto.MarshalPublicKey(b.UAPublic)
	if err != nil {
		return nil, err
	}
	iaDER, err := ppcrypto.MarshalPublicKey(b.IAPublic)
	if err != nil {
		return nil, err
	}
	bf := BundleFile{
		UAPublicDER: base64.StdEncoding.EncodeToString(uaDER),
		IAPublicDER: base64.StdEncoding.EncodeToString(iaDER),
	}
	if b.UABox != nil && b.IABox != nil {
		uaBox, err := ppcrypto.MarshalBoxPublicKey(b.UABox)
		if err != nil {
			return nil, err
		}
		iaBox, err := ppcrypto.MarshalBoxPublicKey(b.IABox)
		if err != nil {
			return nil, err
		}
		bf.UABoxDER = base64.StdEncoding.EncodeToString(uaBox)
		bf.IABoxDER = base64.StdEncoding.EncodeToString(iaBox)
	}
	return json.MarshalIndent(bf, "", "  ")
}

// UnmarshalBundleFile parses a public bundle.
func UnmarshalBundleFile(data []byte) (PublicBundle, error) {
	var bf BundleFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return PublicBundle{}, fmt.Errorf("parse bundle file: %w", err)
	}
	var b PublicBundle
	var err error
	if b.UAPublic, err = rsaPublicFromField("ua_public_der", bf.UAPublicDER); err != nil {
		return PublicBundle{}, err
	}
	if b.IAPublic, err = rsaPublicFromField("ia_public_der", bf.IAPublicDER); err != nil {
		return PublicBundle{}, err
	}
	if (bf.UABoxDER == "") != (bf.IABoxDER == "") {
		return PublicBundle{}, fmt.Errorf("bundle file: ua_box_der and ia_box_der must be both present or both absent")
	}
	if bf.UABoxDER != "" {
		if b.UABox, err = keyFromField("ua_box_der", bf.UABoxDER, ppcrypto.UnmarshalBoxPublicKey); err != nil {
			return PublicBundle{}, err
		}
		if b.IABox, err = keyFromField("ia_box_der", bf.IABoxDER, ppcrypto.UnmarshalBoxPublicKey); err != nil {
			return PublicBundle{}, err
		}
		if b.UABox.Equal(b.IABox) {
			return PublicBundle{}, errSharedKey("bundle file", "ua_box_der", "ia_box_der")
		}
	}
	if b.UAPublic.Equal(b.IAPublic) {
		return PublicBundle{}, errSharedKey("bundle file", "ua_public_der", "ia_public_der")
	}
	return b, nil
}

func rsaPublicFromField(field, b64 string) (*rsa.PublicKey, error) {
	pub, err := keyFromField(field, b64, ppcrypto.UnmarshalPublicKey)
	if err != nil {
		return nil, err
	}
	if err := checkModulus(pub); err != nil {
		return nil, fmt.Errorf("%s: %w", field, err)
	}
	return pub, nil
}
