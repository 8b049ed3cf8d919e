package ppcrypto

// box.go is the second way to encrypt a short field for exactly one proxy
// layer: an ECIES "sealed box". The sender draws one fresh ephemeral X25519
// key per request, derives a single-use AES-256 key per recipient from the
// shared secret with HKDF-SHA256 (RFC 5869) salted with the ephemeral and
// the recipient public key, and seals each field with AES-256-GCM, the
// field's role as associated data:
//
//	box = ephemeral public key (32 B) ‖ GCM(plaintext) ‖ tag (16 B)
//
// Nothing is kept between two requests — no session, no counter, no handle
// — so a layer learns from a box exactly what it learns from an RSA-OAEP
// block: the plaintext, and nothing that relates two requests to each
// other. The two fields of one request carry the same ephemeral point, but
// only the client, the UA and an observer of the edge ever see both, and
// the salt binds each derived key to its recipient (DESIGN.md §4l). The
// length is constant per plaintext length (BoxOverhead more), which is
// what the constant-size message argument of §4.3 needs.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
)

const (
	boxPointSize = 32 // an X25519 public key
	boxTagSize   = 16 // the GCM tag

	// BoxOverhead is how much longer a box is than its plaintext: a
	// padded identifier (IDBlockSize) travels as 112 bytes, a temporary
	// key (SymmetricKeySize) as 80.
	BoxOverhead = boxPointSize + boxTagSize
)

// Role names the one field of the one layer a box is sealed for. It is
// the box's associated data, so a ciphertext lifted from one field never
// opens as another — an item box replayed as a temporary key fails the tag.
type Role string

// The three fields the user-side library encrypts for one layer alone.
const (
	RoleUAUser    Role = "ua/user"
	RoleIAItem    Role = "ia/item"
	RoleIATempKey Role = "ia/tempkey"
)

// ErrBox reports a box that does not open: too short, wrong key, wrong
// role, a modified byte, or an ephemeral point X25519 rejects. It never
// says which.
var ErrBox = errors.New("ppcrypto: box does not open")

// boxInfo is the HKDF info string; it separates these keys from any other
// use of the same X25519 key.
const boxInfo = "pprox sealed-box v1"

// boxNonce is the GCM nonce of every box. A fixed nonce is sound because
// each key seals exactly one message: the key is derived from an
// ephemeral secret drawn for one request and thrown away after it, and
// salted with the recipient's key, so it is one key per (ephemeral key,
// recipient) — which is why SealPair refuses two fields for one recipient.
var boxNonce [12]byte

// ErrSameRecipient reports a request whose two fields are addressed to one
// and the same key: the layer holding it could read both, and two boxes
// would share one AES key under the zero nonce.
var ErrSameRecipient = errors.New("ppcrypto: both fields are addressed to the same key")

// GenerateBoxKey creates a fresh X25519 layer key.
func GenerateBoxKey() (*ecdh.PrivateKey, error) {
	k, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("generate X25519 key: %w", err)
	}
	return k, nil
}

// Field is one request field to encrypt for one layer: the public keys
// the user-side bundle carries for that layer, the field's role and its
// plaintext. It travels as a sealed box when Box is set and as an RSA-OAEP
// block under RSA (the paper's suite) otherwise.
type Field struct {
	Box   *ecdh.PublicKey
	RSA   *rsa.PublicKey
	Role  Role
	Plain []byte
}

// SealPair encrypts a request's two fields — the one only the UA may read
// and the one only the IA may read — each for its layer alone. Box fields
// share one fresh ephemeral key, so a request costs the client one key
// generation plus one X25519 per box; RSA fields are independent OAEP
// blocks. Two fields for the same key are refused with ErrSameRecipient.
// This is the user-side library's whole suite selection.
func SealPair(ua, ia Field) (uaCt, iaCt []byte, err error) {
	if sameRecipient(ua, ia) {
		return nil, nil, ErrSameRecipient
	}
	var s sealer
	if uaCt, err = s.seal(ua); err != nil {
		return nil, nil, err
	}
	if iaCt, err = s.seal(ia); err != nil {
		return nil, nil, err
	}
	return uaCt, iaCt, nil
}

// SealBox encrypts a short payload so that only the holder of pub's
// private half can read it, and only as the named role: SealPair's
// sealing for one field. Randomized: two seals of one payload share no
// byte beyond chance.
func SealBox(pub *ecdh.PublicKey, role Role, plaintext []byte) ([]byte, error) {
	var s sealer
	return s.seal(Field{Box: pub, Role: role, Plain: plaintext})
}

// sameRecipient reports whether two fields would be encrypted to one key.
func sameRecipient(a, b Field) bool {
	switch {
	case a.Box != nil && b.Box != nil:
		return a.Box.Equal(b.Box)
	case a.Box == nil && b.Box == nil:
		return a.RSA.Equal(b.RSA)
	}
	return false
}

// sealer encrypts the fields of one request. It draws its ephemeral key
// at the first box and seals every later box of the request under it; it
// is never kept past the request.
type sealer struct {
	eph    *ecdh.PrivateKey
	ephPub []byte
}

func (s *sealer) seal(f Field) ([]byte, error) {
	if f.Box == nil {
		return EncryptOAEP(f.RSA, f.Plain)
	}
	if s.eph == nil {
		eph, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("box seal: %w", err)
		}
		s.eph, s.ephPub = eph, eph.PublicKey().Bytes()
	}
	shared, err := s.eph.ECDH(f.Box)
	if err != nil {
		return nil, fmt.Errorf("box seal: %w", err)
	}
	aead, err := boxAEAD(s.ephPub, f.Box.Bytes(), shared)
	if err != nil {
		return nil, fmt.Errorf("box seal: %w", err)
	}
	out := make([]byte, boxPointSize, len(f.Plain)+BoxOverhead)
	copy(out, s.ephPub)
	return aead.Seal(out, boxNonce[:], f.Plain, []byte(f.Role)), nil
}

// OpenBox reverses SealBox with the layer's private key. Every failure is
// ErrBox.
func OpenBox(priv *ecdh.PrivateKey, role Role, box []byte) ([]byte, error) {
	if len(box) < BoxOverhead {
		return nil, ErrBox
	}
	ephPub := box[:boxPointSize]
	eph, err := ecdh.X25519().NewPublicKey(ephPub)
	if err != nil {
		return nil, ErrBox
	}
	// ECDH fails on a low-order point (all-zero shared secret): whoever
	// sent it chose the key instead of agreeing on one.
	shared, err := priv.ECDH(eph)
	if err != nil {
		return nil, ErrBox
	}
	aead, err := boxAEAD(ephPub, priv.PublicKey().Bytes(), shared)
	if err != nil {
		return nil, ErrBox
	}
	pt, err := aead.Open(nil, boxNonce[:], box[boxPointSize:], []byte(role))
	if err != nil {
		return nil, ErrBox
	}
	return pt, nil
}

// boxAEAD derives the single-use key of one box and keys AES-256-GCM with
// it. Salting with both public keys binds the key to this exchange: the
// same shared secret under another ephemeral or recipient key derives an
// unrelated one.
func boxAEAD(ephPub, recipientPub, shared []byte) (cipher.AEAD, error) {
	var salt [2 * boxPointSize]byte
	copy(salt[:], ephPub)
	copy(salt[boxPointSize:], recipientPub)
	key := hkdfSHA256(salt[:], shared, boxInfo)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// hkdfSHA256 is HKDF (RFC 5869) with SHA-256 for one output block: the
// first 32 bytes of OKM, which is all a box needs.
func hkdfSHA256(salt, ikm []byte, info string) [sha256.Size]byte {
	prk := hmacSHA256(salt, ikm, nil)
	// T(1) = HMAC(PRK, info ‖ 0x01)
	return hmacSHA256(prk[:], []byte(info), []byte{1})
}

// hmacSHA256 is HMAC-SHA256(key, a ‖ b) computed in fixed arrays. It is
// crypto/hmac's construction — the tests hold the two against each other
// and against RFC 5869's vectors — minus the five heap objects hmac.New
// makes per key, which at four derivations a request is what would put a
// box request's allocations above an RSA one's.
func hmacSHA256(key, a, b []byte) [sha256.Size]byte {
	var pad [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		copy(pad[:], sum[:])
	} else {
		copy(pad[:], key)
	}
	// One buffer for both passes: pad ‖ message. Messages here are at
	// most info ‖ 0x01 or a 32-byte secret; longer ones (the RFC's
	// vectors) spill to the heap through append.
	var stack [sha256.BlockSize + 64]byte
	buf := stack[:sha256.BlockSize]
	for i, p := range pad {
		buf[i] = p ^ 0x36
	}
	buf = append(append(buf, a...), b...)
	inner := sha256.Sum256(buf)
	buf = buf[:sha256.BlockSize]
	for i, p := range pad {
		buf[i] = p ^ 0x5c
	}
	return sha256.Sum256(append(buf, inner[:]...))
}

// MarshalBoxPublicKey serializes an X25519 public key (PKIX/DER) for the
// user-side library's provisioning bundle.
func MarshalBoxPublicKey(pub *ecdh.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("marshal box public key: %w", err)
	}
	return der, nil
}

// UnmarshalBoxPublicKey parses a PKIX/DER X25519 public key.
func UnmarshalBoxPublicKey(der []byte) (*ecdh.PublicKey, error) {
	k, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("parse box public key: %w", err)
	}
	pub, ok := k.(*ecdh.PublicKey)
	if !ok {
		return nil, fmt.Errorf("parse box public key: not an X25519 key (%T)", k)
	}
	return pub, nil
}

// MarshalBoxPrivateKey serializes an X25519 private key (PKCS#8/DER) for
// sealed provisioning into an enclave.
func MarshalBoxPrivateKey(priv *ecdh.PrivateKey) ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("marshal box private key: %w", err)
	}
	return der, nil
}

// UnmarshalBoxPrivateKey parses a PKCS#8/DER X25519 private key.
func UnmarshalBoxPrivateKey(der []byte) (*ecdh.PrivateKey, error) {
	k, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("parse box private key: %w", err)
	}
	priv, ok := k.(*ecdh.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("parse box private key: not an X25519 key (%T)", k)
	}
	return priv, nil
}
