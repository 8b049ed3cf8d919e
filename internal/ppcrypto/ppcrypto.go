// Package ppcrypto implements the cryptographic suite used by the PProx
// protocol (Middleware '21, §4.1): RSA-OAEP asymmetric encryption for
// exclusive visibility by one proxy layer, deterministic AES-CTR (constant
// initialization vector) for pseudonymization of user and item identifiers,
// randomized AES-CTR for protecting recommendation lists, and a fixed-size
// padding codec that keeps every encrypted message at a constant length.
//
// The paper's implementation uses Intel's OpenSSL SGX port with RSA for
// asymmetric encryption and AES-CTR for symmetric encryption; this package
// reproduces that suite on the Go standard library.
package ppcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

const (
	// RSABits is the modulus size of layer key pairs.
	RSABits = 2048

	// RSACiphertextSize is the constant size of an RSA-OAEP ciphertext
	// under a 2048-bit key. Constant ciphertext size is what makes
	// messages between the user-side library and the proxy layers
	// indistinguishable to a network observer (§4.3).
	RSACiphertextSize = RSABits / 8

	// SymmetricKeySize is the AES-256 key length used for both the
	// permanent pseudonymization keys (kUA, kIA) and the per-request
	// temporary keys (k_u).
	SymmetricKeySize = 32

	// IDBlockSize is the fixed size every user or item identifier is
	// padded to before encryption, so that all pseudonyms and all
	// asymmetric ciphertexts have constant length.
	IDBlockSize = 64

	// ivSize is the AES block size used for CTR initialization vectors.
	ivSize = aes.BlockSize
)

// Errors returned by this package. They are exported so that callers (the
// proxy layers and the user-side library) can distinguish malformed
// ciphertexts from identifier-encoding problems.
var (
	// ErrIdentifierTooLong reports an identifier that does not fit in a
	// fixed-size block.
	ErrIdentifierTooLong = errors.New("ppcrypto: identifier too long for fixed-size block")

	// ErrMalformedPadding reports a padded block whose header is
	// inconsistent with its contents.
	ErrMalformedPadding = errors.New("ppcrypto: malformed fixed-size padding")

	// ErrCiphertextSize reports a ciphertext of unexpected length.
	ErrCiphertextSize = errors.New("ppcrypto: ciphertext has unexpected size")

	// ErrKeySize reports a symmetric key of the wrong length.
	ErrKeySize = errors.New("ppcrypto: symmetric key must be 32 bytes")
)

// KeyPair is an asymmetric key pair provisioned to one proxy layer. The
// public half is embedded in the user-side library; the private half lives
// only inside the layer's enclave.
type KeyPair struct {
	Private *rsa.PrivateKey
	Public  *rsa.PublicKey
}

// GenerateKeyPair creates a fresh layer key pair.
func GenerateKeyPair() (*KeyPair, error) {
	priv, err := rsa.GenerateKey(rand.Reader, RSABits)
	if err != nil {
		return nil, fmt.Errorf("generate RSA key: %w", err)
	}
	return &KeyPair{Private: priv, Public: &priv.PublicKey}, nil
}

// MarshalPublicKey serializes a layer public key (PKIX/DER) for embedding in
// the user-side library's provisioning bundle.
func MarshalPublicKey(pub *rsa.PublicKey) ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return nil, fmt.Errorf("marshal public key: %w", err)
	}
	return der, nil
}

// UnmarshalPublicKey parses a PKIX/DER public key.
func UnmarshalPublicKey(der []byte) (*rsa.PublicKey, error) {
	k, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("parse public key: %w", err)
	}
	pub, ok := k.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("parse public key: not an RSA key (%T)", k)
	}
	return pub, nil
}

// MarshalPrivateKey serializes a layer private key (PKCS#8/DER) for sealed
// provisioning into an enclave.
func MarshalPrivateKey(priv *rsa.PrivateKey) ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(priv)
	if err != nil {
		return nil, fmt.Errorf("marshal private key: %w", err)
	}
	return der, nil
}

// UnmarshalPrivateKey parses a PKCS#8/DER private key.
func UnmarshalPrivateKey(der []byte) (*rsa.PrivateKey, error) {
	k, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("parse private key: %w", err)
	}
	priv, ok := k.(*rsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("parse private key: not an RSA key (%T)", k)
	}
	return priv, nil
}

// NewSymmetricKey draws a fresh AES-256 key: a permanent pseudonymization
// key (kUA, kIA) at provisioning time, or a temporary per-request key (k_u)
// in the user-side library.
func NewSymmetricKey() ([]byte, error) {
	key := make([]byte, SymmetricKeySize)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("generate symmetric key: %w", err)
	}
	return key, nil
}

// PadID encodes an identifier into a fixed-size block: a 2-byte big-endian
// length header followed by the identifier bytes and zero padding. All
// identifiers on the wire occupy exactly IDBlockSize bytes so that their
// ciphertexts are indistinguishable by size.
func PadID(id string) ([]byte, error) {
	if len(id) > IDBlockSize-2 {
		return nil, fmt.Errorf("%w: %d bytes (max %d)", ErrIdentifierTooLong, len(id), IDBlockSize-2)
	}
	block := make([]byte, IDBlockSize)
	binary.BigEndian.PutUint16(block[:2], uint16(len(id)))
	copy(block[2:], id)
	return block, nil
}

// UnpadID decodes a fixed-size identifier block produced by PadID.
func UnpadID(block []byte) (string, error) {
	n, err := paddedLen(block)
	if err != nil {
		return "", err
	}
	return string(block[2 : 2+n]), nil
}

// paddedLen is UnpadID's check without the string: the identifier length
// a well-formed block's header names. For every block it accepts,
// PadID(UnpadID(block)) == block, so an accepted block is already the
// identifier's canonical padded form.
func paddedLen(block []byte) (int, error) {
	if len(block) != IDBlockSize {
		return 0, fmt.Errorf("%w: block is %d bytes", ErrMalformedPadding, len(block))
	}
	n := int(binary.BigEndian.Uint16(block[:2]))
	if n > IDBlockSize-2 {
		return 0, fmt.Errorf("%w: header length %d", ErrMalformedPadding, n)
	}
	for _, b := range block[2+n:] {
		if b != 0 {
			return 0, fmt.Errorf("%w: nonzero padding", ErrMalformedPadding)
		}
	}
	return n, nil
}

// EncryptOAEP encrypts a short payload (a padded identifier or a temporary
// symmetric key) under a layer public key. This is randomized encryption:
// two encryptions of the same input yield different ciphertexts, which is
// why the result cannot serve as a pseudonym (§4.1) — pseudonyms use
// DetEncrypt instead.
func EncryptOAEP(pub *rsa.PublicKey, plaintext []byte) ([]byte, error) {
	ct, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, pub, plaintext, nil)
	if err != nil {
		return nil, fmt.Errorf("OAEP encrypt: %w", err)
	}
	return ct, nil
}

// DecryptOAEP decrypts an EncryptOAEP ciphertext with a layer private key.
func DecryptOAEP(priv *rsa.PrivateKey, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != RSACiphertextSize {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrCiphertextSize, len(ciphertext), RSACiphertextSize)
	}
	pt, err := rsa.DecryptOAEP(sha256.New(), nil, priv, ciphertext, nil)
	if err != nil {
		return nil, fmt.Errorf("OAEP decrypt: %w", err)
	}
	return pt, nil
}

// DetStream is deterministic encryption under one permanent key: the
// AES-256-CTR key stream under the constant (all-zero) initialization
// vector, IDBlockSize bytes of it. Every identifier block is XORed with
// these same bytes, so a holder of the stream pseudonymizes or
// re-identifies with one XOR and expands no AES key per identifier. The
// enclaves keep one per provisioned permanent key; DetEncrypt, DetDecrypt,
// Pseudonymize and Depseudonymize are one-shot uses of it, so there is one
// definition of a pseudonym and no second cipher path.
type DetStream struct {
	ks [IDBlockSize]byte
}

// NewDetStream expands key into its deterministic key stream.
func NewDetStream(key []byte) (*DetStream, error) {
	s := new(DetStream)
	if err := s.init(key); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *DetStream) init(key []byte) error {
	c, err := newCTR(key, make([]byte, ivSize))
	if err != nil {
		return err
	}
	c.XORKeyStream(s.ks[:], s.ks[:])
	return nil
}

// xor sets dst[:len(src)] to src XOR the key stream — encryption and
// decryption alike, CTR being an involution. src is at most IDBlockSize
// bytes; dst may alias it exactly.
func (s *DetStream) xor(dst, src []byte) error {
	if len(src) > IDBlockSize {
		return fmt.Errorf("%w: %d bytes, deterministic blocks are at most %d", ErrCiphertextSize, len(src), IDBlockSize)
	}
	subtle.XORBytes(dst, src, s.ks[:len(src)])
	return nil
}

// Pseudonymize pads id to a fixed-size block and encrypts it: the stable
// pseudonym stored by the LRS.
func (s *DetStream) Pseudonymize(id string) ([]byte, error) {
	block, err := PadID(id)
	if err != nil {
		return nil, err
	}
	subtle.XORBytes(block, block, s.ks[:])
	return block, nil
}

// OpenBlock decrypts a pseudonym into block and applies UnpadID's checks
// to it, without building the identifier string: an accepted block is
// exactly what PadID makes of the identifier, so it can be packed as is.
func (s *DetStream) OpenBlock(block *[IDBlockSize]byte, pseudonym []byte) error {
	if len(pseudonym) != IDBlockSize {
		return fmt.Errorf("%w: pseudonym is %d bytes", ErrCiphertextSize, len(pseudonym))
	}
	subtle.XORBytes(block[:], pseudonym, s.ks[:])
	_, err := paddedLen(block[:])
	return err
}

// DetEncrypt deterministically encrypts a block of at most IDBlockSize
// bytes with AES-256-CTR and a constant (all-zero) initialization vector.
// Determinism is required so the LRS recognizes two pseudonymized
// identifiers as the same entity: det_enc(u, kUA) is the stable pseudonym
// of user u (§4.1). The trade-off — lower resilience against
// known-plaintext analysis than probabilistic encryption — is the one the
// paper makes explicitly.
func DetEncrypt(key, block []byte) ([]byte, error) {
	var s DetStream
	if err := s.init(key); err != nil {
		return nil, err
	}
	out := make([]byte, len(block))
	if err := s.xor(out, block); err != nil {
		return nil, err
	}
	return out, nil
}

// DetDecrypt reverses DetEncrypt. CTR mode is an involution under the same
// key stream, so this is the same transform; the separate name keeps call
// sites self-describing.
func DetDecrypt(key, block []byte) ([]byte, error) {
	return DetEncrypt(key, block)
}

// SymEncrypt encrypts arbitrary data with AES-256-CTR under a fresh random
// initialization vector, prepended to the ciphertext. This is the
// randomized encryption used for recommendation lists returned to the
// user-side library under the temporary key k_u (§4.1).
func SymEncrypt(key, plaintext []byte) ([]byte, error) {
	iv := make([]byte, ivSize)
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("generate IV: %w", err)
	}
	c, err := newCTR(key, iv)
	if err != nil {
		return nil, err
	}
	out := make([]byte, ivSize+len(plaintext))
	copy(out, iv)
	c.XORKeyStream(out[ivSize:], plaintext)
	return out, nil
}

// SymDecrypt reverses SymEncrypt.
func SymDecrypt(key, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < ivSize {
		return nil, fmt.Errorf("%w: %d bytes, shorter than IV", ErrCiphertextSize, len(ciphertext))
	}
	c, err := newCTR(key, ciphertext[:ivSize])
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(ciphertext)-ivSize)
	c.XORKeyStream(out, ciphertext[ivSize:])
	return out, nil
}

func newCTR(key, iv []byte) (cipher.Stream, error) {
	if len(key) != SymmetricKeySize {
		return nil, fmt.Errorf("%w: got %d bytes", ErrKeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("AES cipher: %w", err)
	}
	return cipher.NewCTR(block, iv), nil
}

// Pseudonymize is the composite operation performed inside an enclave: pad
// the cleartext identifier to a fixed-size block and deterministically
// encrypt it under the layer's permanent key. The result is the stable
// pseudonym stored by the LRS.
func Pseudonymize(key []byte, id string) ([]byte, error) {
	var s DetStream
	if err := s.init(key); err != nil {
		return nil, err
	}
	return s.Pseudonymize(id)
}

// Depseudonymize reverses Pseudonymize: decrypt a stable pseudonym back to
// the cleartext identifier. Only the layer holding the permanent key can do
// this (the IA layer does, to translate LRS recommendations back to catalog
// item identifiers).
func Depseudonymize(key, pseudonym []byte) (string, error) {
	var s DetStream
	if err := s.init(key); err != nil {
		return "", err
	}
	var block [IDBlockSize]byte
	if err := s.OpenBlock(&block, pseudonym); err != nil {
		return "", err
	}
	return UnpadID(block[:])
}
