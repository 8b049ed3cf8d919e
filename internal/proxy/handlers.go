package proxy

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"

	"pprox/internal/enclave"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/reccache"
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
	// link a retry to the attempt it repeats. It is deployment-wide, not
	// per-tenant: the IA must strip the envelope before it can read which
	// tenant a message belongs to.
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

// iaGetCall frames the IA get-path ECALL: the opaque request body plus the
// host-chosen handle under which the enclave parks the temporary key k_u
// in its EPC key-value store until the LRS response arrives. Fill, on the
// response ECALL, marks the coalescing leader: only it writes the fetched
// list into the recommendation cache, so N coalesced followers do not
// re-fill N times.
type iaGetCall struct {
	Handle string          `json:"handle"`
	Body   json.RawMessage `json:"body"`
	Fill   bool            `json:"fill,omitempty"`
}

// iaGetResult is the ia/get ECALL output when the recommendation cache is
// enabled. On a hit, Body is the finished GetResponse — sealed under the
// client's k_u inside the ECALL — and no LRS hop is needed. On a miss,
// Body is the LRSGet request to forward and Key is the coalescing key
// (tenant + user pseudonym, both of which the host sees on the LRS link
// anyway) under which concurrent misses share one fetch.
type iaGetResult struct {
	Hit  bool            `json:"hit"`
	Key  string          `json:"key,omitempty"`
	Body json.RawMessage `json:"body"`
}

// parkedKey is the pending-response state the ia/get ECALL parks in the
// EPC KV store until the LRS answers: the client's temporary key, the
// tenant whose kIA decodes the response, and the user pseudonym the
// response ECALL fills the cache under. It never leaves the enclave.
type parkedKey struct {
	Ku     []byte `json:"ku"`
	Tenant string `json:"tenant"`
	User   string `json:"user"`
}

// errEnclave wraps handler-internal failures; the untrusted server sees
// only that processing failed, never why a ciphertext was rejected.
var errEnclave = errors.New("proxy: enclave processing failed")

// TenantSecret qualifies a secret name for a tenant: one enclave may be
// provisioned with several applications' keys (§6.3 multi-tenancy). The
// empty tenant selects the single-tenant names.
func TenantSecret(base, tenant string) string {
	if tenant == "" {
		return base
	}
	return base + "@" + tenant
}

func getSecret(s enclave.Secrets, base, tenant string) ([]byte, error) {
	name := TenantSecret(base, tenant)
	v, ok := s.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: secret %q missing", errEnclave, name)
	}
	return v, nil
}

// linkEnvelope is the hop-encrypted form of a message on the UA→IA link:
// the inner JSON encrypted under the shared link key with ppcrypto's
// randomized (fresh-IV) symmetric path, in base64. Its presence is
// detectable by the host — that is fine, every message on the link looks
// the same — but its content and the relation between two envelopes are
// not.
type linkEnvelope struct {
	Link string `json:"link"`
}

// wrapLink seals plain into a fresh envelope. Each call draws a fresh IV,
// so wrapping the same plaintext twice yields unrelated ciphertexts.
func wrapLink(key, plain []byte) ([]byte, error) {
	ct, err := ppcrypto.SymEncrypt(key, plain)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	return message.Marshal(linkEnvelope{Link: message.Encode64(ct)})
}

// unwrapLink opens an envelope produced by wrapLink.
func unwrapLink(key, data []byte) ([]byte, error) {
	var env linkEnvelope
	if err := message.Unmarshal(data, &env); err != nil || env.Link == "" {
		return nil, fmt.Errorf("%w: not a link envelope", errEnclave)
	}
	return openLink(key, env)
}

// openLink decrypts an already-parsed envelope.
func openLink(key []byte, env linkEnvelope) ([]byte, error) {
	ct, err := message.Decode64(env.Link)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	plain, err := ppcrypto.SymDecrypt(key, ct)
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

// maybeUnwrapLink opens an inbound IA body if it is an envelope; plain
// bodies (deployments without a link key) pass unchanged. An envelope
// arriving at an enclave without the key is rejected rather than parsed as
// a request.
func maybeUnwrapLink(s enclave.Secrets, data []byte) ([]byte, error) {
	var env linkEnvelope
	if err := message.Unmarshal(data, &env); err != nil || env.Link == "" {
		return data, nil
	}
	key, ok := s.Get(SecretLinkKey)
	if !ok {
		return nil, fmt.Errorf("%w: link-wrapped message but no link key provisioned", errEnclave)
	}
	return openLink(key, env)
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
func open(s enclave.Secrets, tenant string, role ppcrypto.Role, field string) ([]byte, error) {
	ct, err := message.Decode64(field)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errEnclave, err)
	}
	base, parse := SecretBoxKey, parseBoxKey
	if len(ct) == ppcrypto.RSACiphertextSize {
		base, parse = SecretPrivateKey, parsePrivateKey
	}
	name := TenantSecret(base, tenant)
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

	pseudonymizeUser := func(s enclave.Secrets, tenant, encUser string) (string, error) {
		kUA, err := getSecret(s, SecretPermanentKey, tenant)
		if err != nil {
			return "", err
		}
		block, err := open(s, tenant, ppcrypto.RoleUAUser, encUser)
		if err != nil {
			return "", err
		}
		u, err := ppcrypto.UnpadID(block)
		if err != nil {
			return "", fmt.Errorf("%w: %v", errEnclave, err)
		}
		pseudo, err := ppcrypto.Pseudonymize(kUA, u)
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
		pseudo, err := pseudonymizeUser(s, req.Tenant, req.EncUser)
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
		pseudo, err := pseudonymizeUser(s, req.Tenant, req.EncUser)
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
	// UA→IA link cannot tell a retry from a new request.
	e.Register(ecallLinkRewrap, func(s enclave.Secrets, _ *enclave.KV, in []byte) ([]byte, error) {
		key, ok := s.Get(SecretLinkKey)
		if !ok {
			return nil, fmt.Errorf("%w: no link key provisioned", errEnclave)
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
	// Cache enables the in-enclave recommendation cache: get-path ECALLs
	// look up the user pseudonym before asking the LRS, response ECALLs
	// fill it, and rating POSTs invalidate it. The cache's EPC pages are
	// charged against this enclave's budget (Bind happens at launch).
	Cache *reccache.Cache
}

// IAIdentityFor returns the code identity matching the options, for
// attestation. The cache variant changes the measurement — caching code
// is part of what the provisioner trusts with keys.
func IAIdentityFor(opts IAOptions) enclave.CodeIdentity {
	ci := IAIdentity
	if opts.DisableItemPseudonymization {
		ci = IAIdentityNoItemPseudonyms
	}
	if opts.Cache != nil {
		ci.Version += "+cache"
	}
	return ci
}

// NewIAEnclave launches an Item Anonymizer enclave. The IA layer sees item
// identifiers in the clear and pseudonymizes them for the LRS; it can
// never see user identifiers or client addresses (§3). On the get path it
// keeps the temporary key k_u in its EPC key-value store and uses it to
// re-encrypt the recommendation list so the UA layer cannot read it.
func NewIAEnclave(p *enclave.Platform, opts IAOptions) *enclave.Enclave {
	e := p.Launch(IAIdentityFor(opts))
	if opts.Cache != nil {
		// Cache entries draw on this enclave's EPC budget, like the KV
		// store does; EPC pressure evicts LRU entries instead of
		// failing requests.
		opts.Cache.Bind(e)
	}

	decryptItem := func(s enclave.Secrets, tenant, encItem string) (string, error) {
		block, err := open(s, tenant, ppcrypto.RoleIAItem, encItem)
		if err != nil {
			return "", err
		}
		item, err := ppcrypto.UnpadID(block)
		if err != nil {
			return "", fmt.Errorf("%w: %v", errEnclave, err)
		}
		return item, nil
	}

	// sealItems finishes a recommendation list for release: truncate,
	// de-pseudonymize under kIA, and encrypt under the client's temporary
	// key k_u. Shared by the cache-hit path and the LRS-response path, so
	// a cached entry is only ever sealed at release time, under the key of
	// the client asking *now* — nothing client-encrypted is ever stored.
	sealItems := func(s enclave.Secrets, tenant string, ku []byte, items []string) ([]byte, error) {
		if len(items) > message.MaxRecommendations {
			items = items[:message.MaxRecommendations]
		}
		clear := make([]string, 0, len(items))
		if opts.DisableItemPseudonymization {
			clear = append(clear, items...)
		} else {
			kIA, err := getSecret(s, SecretPermanentKey, tenant)
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				pseudo, err := message.Decode64(it)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", errEnclave, err)
				}
				id, err := ppcrypto.Depseudonymize(kIA, pseudo)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", errEnclave, err)
				}
				clear = append(clear, id)
			}
		}
		packed, err := message.EncodeItemList(clear)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		encrypted, err := ppcrypto.SymEncrypt(ku, packed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		return message.Marshal(message.GetResponse{EncItems: message.Encode64(encrypted)})
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
		item, err := decryptItem(s, req.Tenant, req.EncItem)
		if err != nil {
			return nil, err
		}
		if opts.Cache != nil {
			// A new rating changes this user's profile: whatever list is
			// cached for the pseudonym must not outlive the event.
			opts.Cache.Invalidate(req.Tenant, req.EncUser)
		}
		lrsItem := item
		if !opts.DisableItemPseudonymization {
			kIA, err := getSecret(s, SecretPermanentKey, req.Tenant)
			if err != nil {
				return nil, err
			}
			pseudo, err := ppcrypto.Pseudonymize(kIA, item)
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
			Tenant:  req.Tenant,
			Idem:    req.Idem, // UA-minted; the LRS dedups retried events
		})
	})

	e.Register(ecallIAGet, func(s enclave.Secrets, kv *enclave.KV, in []byte) ([]byte, error) {
		var call iaGetCall
		if err := message.Unmarshal(in, &call); err != nil {
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
		ku, err := open(s, req.Tenant, ppcrypto.RoleIATempKey, req.EncTempKey)
		if err != nil {
			return nil, err
		}
		if len(ku) != ppcrypto.SymmetricKeySize {
			return nil, fmt.Errorf("%w: temporary key has wrong size", errEnclave)
		}
		if opts.Cache != nil {
			if items, ok := opts.Cache.Get(req.Tenant, req.EncUser); ok {
				// Cache hit: seal the pseudonymized list under this
				// client's k_u right here, inside the enclave. The host
				// gets a finished GetResponse and skips the LRS hop; the
				// response still re-enters the shuffler like any miss.
				sealed, err := sealItems(s, req.Tenant, ku, items)
				if err != nil {
					return nil, err
				}
				return message.Marshal(iaGetResult{Hit: true, Body: sealed})
			}
		}
		// Park k_u (plus the tenant whose kIA decodes the response and
		// the pseudonym the response fills the cache under) in the EPC KV
		// store until the LRS answers; none of it ever crosses the
		// enclave boundary.
		parked, err := message.Marshal(parkedKey{Ku: ku, Tenant: req.Tenant, User: req.EncUser})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		if err := kv.Put(call.Handle, parked); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		lrs, err := message.Marshal(message.LRSGet{User: req.EncUser, N: message.MaxRecommendations, Tenant: req.Tenant})
		if err != nil {
			return nil, err
		}
		if opts.Cache == nil {
			return lrs, nil
		}
		return message.Marshal(iaGetResult{Key: req.Tenant + "\x00" + req.EncUser, Body: lrs})
	})

	e.Register(ecallIAGetResp, func(s enclave.Secrets, kv *enclave.KV, in []byte) ([]byte, error) {
		var call iaGetCall
		if err := message.Unmarshal(in, &call); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		var resp message.LRSGetResponse
		if err := message.Unmarshal(call.Body, &resp); err != nil {
			return nil, fmt.Errorf("%w: %v", errEnclave, err)
		}
		parked, ok := kv.Take(call.Handle)
		if !ok {
			return nil, fmt.Errorf("%w: no pending temporary key for handle", errEnclave)
		}
		var pk parkedKey
		if err := message.Unmarshal(parked, &pk); err != nil || len(pk.Ku) != ppcrypto.SymmetricKeySize {
			return nil, fmt.Errorf("%w: pending-key state corrupt", errEnclave)
		}

		items := resp.Items
		if len(items) > message.MaxRecommendations {
			items = items[:message.MaxRecommendations]
		}
		if opts.Cache != nil && call.Fill {
			// Fill with the list exactly as the LRS returned it —
			// pseudonymized, never client-encrypted. Best effort: a fill
			// the EPC cannot hold is dropped, the request is not.
			_ = opts.Cache.Put(pk.Tenant, pk.User, items)
		}
		return sealItems(s, pk.Tenant, pk.Ku, items)
	})

	return e
}
