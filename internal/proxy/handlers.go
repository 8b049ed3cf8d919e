package proxy

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"encoding/base64"
	"errors"
	"fmt"
	"slices"

	"pprox/internal/enclave"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
)

// Secret names under which layer key material is provisioned into
// enclaves (Table 1 of the paper).
const (
	// SecretPrivateKey is skUA / skIA: the layer's RSA private key
	// decrypting fields the user-side library encrypted for this layer
	// alone.
	SecretPrivateKey = "sk"
	// SecretBoxKey is the layer's X25519 private key (PKCS#8), opening
	// the same fields when they arrive as sealed boxes. Absent on
	// RSA-only key material.
	SecretBoxKey = "bsk"
	// SecretPermanentKey is kUA / kIA: the permanent symmetric key
	// deterministically pseudonymizing identifiers for the LRS.
	SecretPermanentKey = "k"
	// SecretLinkKey is the optional hop-envelope key shared by the UA and
	// IA enclaves. When present, the UA enclave wraps every outbound body
	// in a randomized AES-CTR envelope (fresh IV per encryption), and a
	// retried request is re-wrapped before leaving again — so an observer
	// of the UA→IA link never sees the same ciphertext twice and cannot
	// link a retry to the attempt it repeats.
	SecretLinkKey = "link"
)

// ECALL entry points registered by each layer's enclave code.
const (
	ecallUAPost     = "ua/post"
	ecallUAGet      = "ua/get"
	ecallIAPost     = "ia/post"
	ecallIAGet      = "ia/get"
	ecallIAGetResp  = "ia/get-response"
	ecallLinkRewrap = "link/rewrap"
)

// Code identities measured at attestation time. Version changes (e.g. the
// item-pseudonymization variant) change the measurement, so a provisioner
// always knows which code it is trusting with keys.
var (
	// UAIdentity is the User Anonymizer enclave code identity.
	UAIdentity = enclave.CodeIdentity{Name: "pprox-ua", Version: "1.0"}
	// IAIdentity is the Item Anonymizer enclave code identity.
	IAIdentity = enclave.CodeIdentity{Name: "pprox-ia", Version: "1.0"}
	// IAIdentityNoItemPseudonyms is the IA variant with item
	// pseudonymization disabled (§6.3, configuration m4).
	IAIdentityNoItemPseudonyms = enclave.CodeIdentity{Name: "pprox-ia", Version: "1.0-noitempseudo"}
)

// errEnclave wraps handler-internal failures; the untrusted server sees
// only that processing failed, never why a ciphertext was rejected.
var errEnclave = errors.New("proxy: enclave processing failed")

// detStream returns the layer's pseudonymization stream: kUA's or kIA's
// deterministic key stream (ppcrypto.DetStream), which is the same bytes
// for every identifier the key ever pseudonymizes. Like open()'s parsed
// keys it is enclave-resident state derived from the provisioned secret,
// built on first use after a provisioning and dropped with the secret set
// when the next provisioning (a rotation) replaces it.
func detStream(s enclave.Secrets) (*ppcrypto.DetStream, error) {
	v, err := s.Derived(SecretPermanentKey, parseDetStream)
	if err != nil {
		return nil, fmt.Errorf("%w: secret %q: %v", errEnclave, SecretPermanentKey, err)
	}
	return v.(*ppcrypto.DetStream), nil
}

func parseDetStream(key []byte) (any, error) { return ppcrypto.NewDetStream(key) }

// The hop envelope is the form of a message on the UA→IA link when a
// link key is deployed: the inner JSON encrypted under the shared link
// key with ppcrypto's randomized (fresh-IV) symmetric path, as the raw
// IV‖ciphertext bytes of a frame slot. Whether a message is wrapped
// follows from the key material alone — an enclave holding the link key
// wraps and opens every message, one without it none — so no body is
// ever parsed to find out. Every message on the link looks the same; the
// content and the relation between two envelopes are hidden.

// wrapLink seals plain into a fresh envelope. Each call draws a fresh IV,
// so wrapping the same plaintext twice yields unrelated ciphertexts.
func wrapLink(key, plain []byte) ([]byte, error) {
	ct, err := ppcrypto.SymEncrypt(key, plain)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	return ct, nil
}

// unwrapLink opens an envelope produced by wrapLink.
func unwrapLink(key, data []byte) ([]byte, error) {
	plain, err := ppcrypto.SymDecrypt(key, data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	return plain, nil
}

// maybeWrapLink seals an outbound UA body when the enclave holds the link
// key; without one (legacy deployments) the body passes unchanged.
func maybeWrapLink(s enclave.Secrets, out []byte) ([]byte, error) {
	key, ok := s.Get(SecretLinkKey)
	if !ok {
		return out, nil
	}
	return wrapLink(key, out)
}

// maybeUnwrapLink opens an inbound IA body when the enclave holds the link
// key; without one the body passes unchanged.
func maybeUnwrapLink(s enclave.Secrets, data []byte) ([]byte, error) {
	key, ok := s.Get(SecretLinkKey)
	if !ok {
		return data, nil
	}
	return unwrapLink(key, data)
}

// mintIdem draws a fresh idempotency key for a feedback event. Minted
// inside the UA enclave so it first exists *after* the edge link: the
// client never sees it and cannot be linked to it.
func mintIdem() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("%w: %v", errEnclave, err)
	}
	return message.Encode64(b[:]), nil
}

// open decrypts one field the user-side library encrypted for this layer
// alone. The key's type is the suite: a field the length of an RSA-2048
// block is an OAEP ciphertext for the RSA key, anything else a sealed box
// for the X25519 key under the field's role. The two lengths never meet (a
// box of 256 bytes would carry 208 bytes of plaintext; fields are 64 and
// 32), so there is no tag to read and nothing to try twice. A field for a
// key this enclave was not provisioned with fails like any other
// undecryptable one.
//
// Parsing a PKCS#8 RSA key costs as much as a tenth of the decryption it
// serves (x509 parse, CRT precomputation, key validation), so the parsed
// key is enclave-resident state derived from the provisioned secret: built
// on the first message after a provisioning and dropped with the secret
// set when the next provisioning replaces it.
func open(s enclave.Secrets, role ppcrypto.Role, field string) ([]byte, error) {
	ct, err := message.Decode64(field)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	name, parse := SecretBoxKey, parseBoxKey
	if len(ct) == ppcrypto.RSACiphertextSize {
		name, parse = SecretPrivateKey, parsePrivateKey
	}
	key, err := s.Derived(name, parse)
	if err != nil {
		return nil, fmt.Errorf("%w: secret %q: %v", errEnclave, name, err)
	}
	var plain []byte
	switch k := key.(type) {
	case *rsa.PrivateKey:
		plain, err = ppcrypto.DecryptOAEP(k, ct)
	case *ecdh.PrivateKey:
		plain, err = ppcrypto.OpenBox(k, role, ct)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	return plain, nil
}

func parsePrivateKey(der []byte) (any, error) { return ppcrypto.UnmarshalPrivateKey(der) }
func parseBoxKey(der []byte) (any, error)     { return ppcrypto.UnmarshalBoxPrivateKey(der) }

// NewUAEnclave launches a User Anonymizer enclave on the platform and
// registers its measured code. The UA layer sees the user identifier in
// the clear (after decrypting with skUA) and replaces it with its stable
// pseudonym det_enc(u, kUA); it can never see item identifiers (§3).
func NewUAEnclave(p *enclave.Platform) *enclave.Enclave {
	e := p.Launch(UAIdentity)

	pseudonymizeUser := func(s enclave.Secrets, encUser string) (string, error) {
		kUA, err := detStream(s)
		if err != nil {
			return "", err
		}
		block, err := open(s, ppcrypto.RoleUAUser, encUser)
		if err != nil {
			return "", err
		}
		u, err := ppcrypto.UnpadID(block)
		if err != nil {
			return "", fmt.Errorf("%w: %v", errEnclave, err)
		}
		pseudo, err := kUA.Pseudonymize(u)
		if err != nil {
			return "", fmt.Errorf("%w: %v", errEnclave, err)
		}
		return message.Encode64(pseudo), nil
	}

	e.Register(ecallUAPost, func(s enclave.Secrets, _ *enclave.KV, in []byte) ([]byte, error) {
		var req message.PostRequest
		if err := message.Unmarshal(in, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		pseudo, err := pseudonymizeUser(s, req.EncUser)
		if err != nil {
			return nil, err
		}
		req.EncUser = pseudo
		// Replace whatever the client put in Idem: only an enclave-minted
		// key is safe — a client-chosen one would be visible on both the
		// edge link and the LRS link, linking the two across the shuffler.
		if req.Idem, err = mintIdem(); err != nil {
			return nil, err
		}
		out, err := message.Marshal(req)
		if err != nil {
			return nil, err
		}
		return maybeWrapLink(s, out)
	})

	e.Register(ecallUAGet, func(s enclave.Secrets, _ *enclave.KV, in []byte) ([]byte, error) {
		var req message.GetRequest
		if err := message.Unmarshal(in, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		pseudo, err := pseudonymizeUser(s, req.EncUser)
		if err != nil {
			return nil, err
		}
		req.EncUser = pseudo
		out, err := message.Marshal(req)
		if err != nil {
			return nil, err
		}
		return maybeWrapLink(s, out)
	})

	// link/rewrap re-randomizes a hop envelope before a retry leaves the
	// UA again: decrypt, re-encrypt with a fresh IV. The retried request
	// is byte-wise unrelated to the failed attempt, so an observer of the
	// UA→IA link cannot tell a retry from a new request. Without a link
	// key nothing was wrapped, and the body leaves as it is.
	e.Register(ecallLinkRewrap, func(s enclave.Secrets, _ *enclave.KV, in []byte) ([]byte, error) {
		key, ok := s.Get(SecretLinkKey)
		if !ok {
			return in, nil
		}
		plain, err := unwrapLink(key, in)
		if err != nil {
			return nil, err
		}
		return wrapLink(key, plain)
	})

	return e
}

// IAOptions selects Item Anonymizer code variants.
type IAOptions struct {
	// DisableItemPseudonymization sends item identifiers to the LRS in
	// the clear (§6.3): useful for semantics-based recommenders, at the
	// cost of weakening the adversary the design tolerates.
	DisableItemPseudonymization bool
}

// IAIdentityFor returns the code identity matching the options, for
// attestation.
func IAIdentityFor(opts IAOptions) enclave.CodeIdentity {
	if opts.DisableItemPseudonymization {
		return IAIdentityNoItemPseudonyms
	}
	return IAIdentity
}

// NewIAEnclave launches an Item Anonymizer enclave. The IA layer sees item
// identifiers in the clear and pseudonymizes them for the LRS; it can
// never see user identifiers or client addresses (§3). On the get path it
// keeps the temporary key k_u in its EPC key-value store and uses it to
// re-encrypt the recommendation list so the UA layer cannot read it.
func NewIAEnclave(p *enclave.Platform, opts IAOptions) *enclave.Enclave {
	e := p.Launch(IAIdentityFor(opts))
	clearItems := opts.DisableItemPseudonymization

	decryptItem := func(s enclave.Secrets, encItem string) (string, error) {
		block, err := open(s, ppcrypto.RoleIAItem, encItem)
		if err != nil {
			return "", err
		}
		item, err := ppcrypto.UnpadID(block)
		if err != nil {
			return "", fmt.Errorf("%w: %v", errEnclave, err)
		}
		return item, nil
	}

	e.Register(ecallIAPost, func(s enclave.Secrets, _ *enclave.KV, in []byte) ([]byte, error) {
		in, err := maybeUnwrapLink(s, in)
		if err != nil {
			return nil, err
		}
		var req message.PostRequest
		if err := message.Unmarshal(in, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		item, err := decryptItem(s, req.EncItem)
		if err != nil {
			return nil, err
		}
		lrsItem := item
		if !opts.DisableItemPseudonymization {
			kIA, err := detStream(s)
			if err != nil {
				return nil, err
			}
			pseudo, err := kIA.Pseudonymize(item)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", errEnclave, err)
			}
			lrsItem = message.Encode64(pseudo)
		}
		return message.Marshal(message.LRSPost{
			User:    req.EncUser, // already det_enc(u, kUA) in base64
			Item:    lrsItem,
			Payload: req.Payload,
			Event:   req.Event,
			Idem:    req.Idem, // UA-minted; the LRS dedups retried events
		})
	})

	e.Register(ecallIAGet, func(s enclave.Secrets, kv *enclave.KV, in []byte) ([]byte, error) {
		call, err := decodeIAGetCall(in)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		body, err := maybeUnwrapLink(s, call.Body)
		if err != nil {
			return nil, err
		}
		var req message.GetRequest
		if err := message.Unmarshal(body, &req); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		ku, err := open(s, ppcrypto.RoleIATempKey, req.EncTempKey)
		if err != nil {
			return nil, err
		}
		if len(ku) != ppcrypto.SymmetricKeySize {
			return nil, fmt.Errorf("%w: temporary key has wrong size", errEnclave)
		}
		// Park k_u in the EPC KV store until the LRS answers; it never
		// crosses the enclave boundary. The store copies the value.
		if err := kv.Put(string(call.Handle), ku); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		return message.Marshal(message.LRSGet{User: req.EncUser, N: message.MaxRecommendations})
	})

	e.Register(ecallIAGetResp, func(s enclave.Secrets, kv *enclave.KV, in []byte) ([]byte, error) {
		call, err := decodeIAGetCall(in)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		var buf [message.MaxRecommendations][]byte
		items, err := message.LRSItems(buf[:0], call.Body)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		ku, ok := kv.Take(string(call.Handle))
		if !ok {
			return nil, fmt.Errorf("%w: no pending temporary key for handle", errEnclave)
		}
		if len(ku) != ppcrypto.SymmetricKeySize {
			return nil, fmt.Errorf("%w: pending-key state corrupt", errEnclave)
		}
		return sealItems(s, ku, items, clearItems)
	})

	return e
}

// sealItems finishes a recommendation list for release: truncate,
// re-identify under kIA, pack, and encrypt under the client's temporary
// key k_u.
//
// Re-identification works on blocks, not strings: a pseudonym decrypts
// to its identifier's padded block, and a block UnpadID accepts is exactly
// what PadID makes of that identifier, so the checked block goes into the
// packed list as is. With cleartext set (item pseudonymization disabled,
// §6.3) the items are identifiers and are padded instead.
func sealItems(s enclave.Secrets, ku []byte, items [][]byte, cleartext bool) ([]byte, error) {
	if len(items) > message.MaxRecommendations {
		items = items[:message.MaxRecommendations]
	}
	var kIA *ppcrypto.DetStream
	if !cleartext {
		var err error
		if kIA, err = detStream(s); err != nil {
			return nil, err
		}
	}
	var packed [message.MaxRecommendations * ppcrypto.IDBlockSize]byte
	list := packed[:0]
	for _, it := range items {
		if cleartext {
			padded, err := ppcrypto.PadID(string(it))
			if err != nil {
				return nil, fmt.Errorf("%w: %v", errEnclave, err)
			}
			list = append(list, padded...)
			continue
		}
		var block [ppcrypto.IDBlockSize]byte
		if err := reidentify(kIA, &block, it); err != nil {
			return nil, err
		}
		list = append(list, block[:]...)
	}
	encrypted, err := ppcrypto.SymEncrypt(ku, message.PadItemList(list))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	return appendGetResponse(nil, encrypted), nil
}

// reidentify decodes one base64 pseudonym from the LRS into a stack buffer
// and opens it under kIA into block.
func reidentify(kIA *ppcrypto.DetStream, block *[ppcrypto.IDBlockSize]byte, item []byte) error {
	var raw [ppcrypto.IDBlockSize + 2]byte // base64.StdEncoding.DecodedLen of a pseudonym's 88 characters
	if base64.StdEncoding.DecodedLen(len(item)) > len(raw) {
		return fmt.Errorf("%w: pseudonym is %d characters", errEnclave, len(item))
	}
	n, err := base64.StdEncoding.Decode(raw[:], item)
	if err != nil {
		return fmt.Errorf("%w: %v", errEnclave, err)
	}
	if err := kIA.OpenBlock(block, raw[:n]); err != nil {
		return fmt.Errorf("%w: %v", errEnclave, err)
	}
	return nil
}

// appendGetResponse renders message.GetResponse{EncItems: base64(encItems)}
// byte for byte as message.Marshal does (base64 needs no JSON escaping),
// in one append.
func appendGetResponse(dst, encItems []byte) []byte {
	const head, tail = `{"enc_items":"`, `"}`
	dst = slices.Grow(dst, len(head)+base64.StdEncoding.EncodedLen(len(encItems))+len(tail))
	dst = append(dst, head...)
	dst = base64.StdEncoding.AppendEncode(dst, encItems)
	return append(dst, tail...)
}
