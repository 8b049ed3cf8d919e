package proxy

import (
	"crypto/ecdh"
	"crypto/rsa"
	"encoding/base64"
	"fmt"

	"pprox/internal/enclave"
	"pprox/internal/ppcrypto"
)

// LayerKeys is the key material of one proxy layer, generated by the RaaS
// client application (not the RaaS provider): the asymmetric keys whose
// public halves go into the user-side library, and the permanent symmetric
// pseudonymization key. The private halves are only ever handed to
// attested enclaves.
//
// Which keys a layer holds is the whole of its crypto-suite configuration:
// a field arrives either as an RSA-OAEP block for Pair or as a sealed box
// for Box, and the enclave opens it with the key of that type (DESIGN.md
// §4l). NewLayerKeys makes both; the paper's suite is key material
// without Box.
type LayerKeys struct {
	Pair *ppcrypto.KeyPair
	// Box is the layer's X25519 sealed-box key; nil on RSA-only material.
	Box       *ecdh.PrivateKey
	Permanent []byte
	// LinkKey is the optional hop-envelope key (SecretLinkKey). It must
	// be the SAME key in the UA and IA layers' material — the UA seals
	// the UA→IA link with it and the IA opens it. Nil disables the
	// envelope (and with it re-randomized retries on that link). Use
	// PairLinkKey to generate and install a shared one.
	LinkKey []byte
}

// NewLayerKeys generates fresh key material for one layer: both asymmetric
// keys, so bundles minted from it seal boxes while RSA-only bundles already
// in the field keep working until they refresh.
func NewLayerKeys() (*LayerKeys, error) {
	lk, err := NewRSAOnlyLayerKeys()
	if err != nil {
		return nil, err
	}
	if lk.Box, err = ppcrypto.GenerateBoxKey(); err != nil {
		return nil, fmt.Errorf("layer keys: %w", err)
	}
	return lk, nil
}

// NewRSAOnlyLayerKeys generates the key material of the paper's suite
// (§4.1): RSA-2048-OAEP for the fields only this layer may read, and no
// box key. The paper's tables and figures are reproduced on it.
func NewRSAOnlyLayerKeys() (*LayerKeys, error) {
	pair, err := ppcrypto.GenerateKeyPair()
	if err != nil {
		return nil, fmt.Errorf("layer keys: %w", err)
	}
	perm, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		return nil, fmt.Errorf("layer keys: %w", err)
	}
	return &LayerKeys{Pair: pair, Permanent: perm}, nil
}

// Secrets renders the key material in the form provisioned into an
// enclave.
func (lk *LayerKeys) Secrets() (map[string][]byte, error) {
	der, err := ppcrypto.MarshalPrivateKey(lk.Pair.Private)
	if err != nil {
		return nil, err
	}
	m := map[string][]byte{
		SecretPrivateKey:   der,
		SecretPermanentKey: append([]byte(nil), lk.Permanent...),
	}
	if lk.Box != nil {
		if m[SecretBoxKey], err = ppcrypto.MarshalBoxPrivateKey(lk.Box); err != nil {
			return nil, err
		}
	}
	if len(lk.LinkKey) > 0 {
		m[SecretLinkKey] = append([]byte(nil), lk.LinkKey...)
	}
	return m, nil
}

// PairLinkKey generates one fresh hop-envelope key and installs it into
// both layers' material, enabling the randomized UA→IA envelope and with
// it unlinkable retries.
func PairLinkKey(ua, ia *LayerKeys) error {
	lk, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		return fmt.Errorf("link key: %w", err)
	}
	ua.LinkKey = lk
	ia.LinkKey = append([]byte(nil), lk...)
	return nil
}

// Provision runs the attested provisioning handshake against an enclave
// expected to run the given code identity (§4.1: "The enclaves
// implementing the two layers are attested upon their bootstrap before
// being provisioned with these keys by the RaaS client application").
// Every enclave of one layer receives the same secrets; new instances
// added by horizontal scaling go through the same handshake (§5).
func (lk *LayerKeys) Provision(as *enclave.AttestationService, e *enclave.Enclave, want enclave.CodeIdentity) error {
	secrets, err := lk.Secrets()
	if err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	// Full secure channel: the quote binds an in-enclave ephemeral key
	// and the secrets travel sealed (enclave.SecureAttestAndProvision),
	// so provisioning tolerates an on-path observer.
	if err := enclave.SecureAttestAndProvision(as, e, enclave.Measure(want), secrets); err != nil {
		return fmt.Errorf("provision: %w", err)
	}
	return nil
}

// PseudonymizeItems maps cleartext item identifiers to the pseudonyms the
// LRS would store under this layer's permanent key. The evaluation uses it
// to seed the nginx-style stub with Harness-shaped payloads (§7.1) that
// the IA layer can de-pseudonymize.
func (lk *LayerKeys) PseudonymizeItems(items []string) ([]string, error) {
	out := make([]string, len(items))
	for i, it := range items {
		p, err := ppcrypto.Pseudonymize(lk.Permanent, it)
		if err != nil {
			return nil, fmt.Errorf("pseudonymize %q: %w", it, err)
		}
		out[i] = base64.StdEncoding.EncodeToString(p)
	}
	return out, nil
}

// PublicBundle is what ships inside the user-side library as static web
// code: the two layers' public keys and nothing else. No per-user or
// per-session secret is ever deployed client-side (§3, ease of
// deployment).
type PublicBundle struct {
	UAPublic *rsa.PublicKey
	IAPublic *rsa.PublicKey
	// UABox and IABox are the layers' X25519 public keys. The library
	// seals boxes whenever it has them; both are nil on an RSA-only
	// bundle.
	UABox *ecdh.PublicKey
	IABox *ecdh.PublicKey
}

// UAField and IAField name a request field for one layer with the keys
// the bundle carries for it, as ppcrypto.SealPair takes them: a box when
// the bundle has the layer's box key, RSA-OAEP otherwise.
func (b PublicBundle) UAField(role ppcrypto.Role, plain []byte) ppcrypto.Field {
	return ppcrypto.Field{Box: b.UABox, RSA: b.UAPublic, Role: role, Plain: plain}
}

func (b PublicBundle) IAField(role ppcrypto.Role, plain []byte) ppcrypto.Field {
	return ppcrypto.Field{Box: b.IABox, RSA: b.IAPublic, Role: role, Plain: plain}
}

// Bundle builds the user-side public bundle from the two layers' keys. It
// advertises the box keys when both layers hold one: a deployment hands
// out one kind of bundle, because the kind shows on the wire (DESIGN.md
// §4l).
func Bundle(ua, ia *LayerKeys) PublicBundle {
	b := PublicBundle{UAPublic: ua.Pair.Public, IAPublic: ia.Pair.Public}
	if ua.Box != nil && ia.Box != nil {
		b.UABox, b.IABox = ua.Box.PublicKey(), ia.Box.PublicKey()
	}
	return b
}
