package adversary

// compromise.go models what an adversary learns after breaking into
// enclaves via side-channel attacks (§2.3 ➍) and combining the stolen
// secrets with its other vantage points: intercepted messages (§6.1 cases
// 1a/2a) and the LRS database (cases 1c/2c). Each function returns exactly
// the information the stolen keys yield — the tests then verify the
// paper's claim that one broken layer never suffices to link a user to an
// item.

import (
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
)

// Loot is the key material leaked from compromised enclaves; either field
// set may be nil if that layer holds.
type Loot struct {
	// UA holds skUA, the UA's box key and kUA when a User Anonymizer
	// enclave was broken.
	UA map[string][]byte
	// IA holds skIA, the IA's box key and kIA when an Item Anonymizer
	// enclave was broken.
	IA map[string][]byte
}

// DBEvent is one pseudonymized record read from the LRS database (the
// adversary "can access any data manipulated by the LRS", §2.3 ➋).
type DBEvent struct {
	UserPseudonym string // base64(det_enc(u, kUA))
	ItemPseudonym string // base64(det_enc(i, kIA)) or cleartext item if disabled
}

// DBFindings is what database de-anonymization yields.
type DBFindings struct {
	// Users maps pseudonym → cleartext user identifier (empty without
	// kUA).
	Users map[string]string
	// Items maps pseudonym → cleartext item identifier (empty without
	// kIA).
	Items map[string]string
	// LinkedPairs are fully de-anonymized (user, item) links — the
	// privacy breach PProx exists to prevent. Non-empty only when BOTH
	// layers' permanent keys leaked.
	LinkedPairs [][2]string
}

// secretNames mirror the proxy package's provisioning layout; they are
// redeclared here because the adversary reads raw enclave memory, not Go
// APIs.
const (
	secretPrivateKey   = "sk"
	secretBoxKey       = "bsk"
	secretPermanentKey = "k"
)

// DeanonymizeDB applies the stolen permanent keys to the LRS database
// (§6.1 cases 1c and 2c).
func DeanonymizeDB(loot Loot, db []DBEvent) DBFindings {
	f := DBFindings{Users: map[string]string{}, Items: map[string]string{}}
	kUA := loot.UA[secretPermanentKey]
	kIA := loot.IA[secretPermanentKey]

	for _, ev := range db {
		var user, item string
		if kUA != nil {
			if raw, err := message.Decode64(ev.UserPseudonym); err == nil {
				if u, err := ppcrypto.Depseudonymize(kUA, raw); err == nil {
					user = u
					f.Users[ev.UserPseudonym] = u
				}
			}
		}
		if kIA != nil {
			if raw, err := message.Decode64(ev.ItemPseudonym); err == nil {
				if i, err := ppcrypto.Depseudonymize(kIA, raw); err == nil {
					item = i
					f.Items[ev.ItemPseudonym] = i
				}
			}
		}
		if user != "" && item != "" {
			f.LinkedPairs = append(f.LinkedPairs, [2]string{user, item})
		}
	}
	return f
}

// InterceptedPost is what decrypting a captured client→UA post request
// with stolen private keys yields (§6.1 cases 1a and 2a).
type InterceptedPost struct {
	// User is the cleartext user identifier (needs skUA).
	User string
	// Item is the cleartext item identifier (needs skIA).
	Item string
}

// DecryptInterceptedPost applies stolen private keys to a captured
// post(enc(u,pkUA), enc(i,pkIA)) message.
func DecryptInterceptedPost(loot Loot, req message.PostRequest) InterceptedPost {
	var out InterceptedPost
	out.User = decryptID(loot.UA, ppcrypto.RoleUAUser, req.EncUser)
	out.Item = decryptID(loot.IA, ppcrypto.RoleIAItem, req.EncItem)
	return out
}

// openField decrypts a captured field with whichever stolen private key
// fits it, the way the robbed enclave would have: an RSA-sized block with
// the RSA key, anything else as a sealed box with the X25519 key. Nil
// without the key or when the field was not sealed for it.
func openField(secrets map[string][]byte, role ppcrypto.Role, ct []byte) []byte {
	if len(ct) == ppcrypto.RSACiphertextSize {
		priv, err := ppcrypto.UnmarshalPrivateKey(secrets[secretPrivateKey])
		if err != nil {
			return nil
		}
		plain, _ := ppcrypto.DecryptOAEP(priv, ct)
		return plain
	}
	priv, err := ppcrypto.UnmarshalBoxPrivateKey(secrets[secretBoxKey])
	if err != nil {
		return nil
	}
	plain, _ := ppcrypto.OpenBox(priv, role, ct)
	return plain
}

func decryptID(secrets map[string][]byte, role ppcrypto.Role, field string) string {
	ct, err := message.Decode64(field)
	if err != nil {
		return ""
	}
	id, err := ppcrypto.UnpadID(openField(secrets, role, ct))
	if err != nil {
		return ""
	}
	return id
}

// DecryptInterceptedGetResponse models case 1b: an adversary holding UA
// secrets intercepts the encrypted recommendation list enc({i...}, k_u) on
// its way to the user. It returns whether any item leaked (it must not:
// k_u is only held by the client and the IA layer).
func DecryptInterceptedGetResponse(loot Loot, resp message.GetResponse) ([]string, bool) {
	// No layer private key decrypts symmetric AES-CTR ciphertext; the only
	// plausible attack is if the list (or k_u) were encrypted for a layer
	// key — it never is. Try anyway, as a real adversary would: every
	// stolen key, and for the box key every role.
	ct, err := message.Decode64(resp.EncItems)
	if err != nil {
		return nil, false
	}
	for _, secrets := range []map[string][]byte{loot.UA, loot.IA} {
		for _, role := range []ppcrypto.Role{ppcrypto.RoleUAUser, ppcrypto.RoleIAItem, ppcrypto.RoleIATempKey} {
			if block := openField(secrets, role, ct); block != nil {
				if items, err := message.DecodeItemList(block); err == nil {
					return items, true
				}
			}
		}
	}
	return nil, false
}
