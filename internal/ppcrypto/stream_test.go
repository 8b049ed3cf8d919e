package ppcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/base64"
	"errors"
	"strings"
	"testing"
)

// goldenKeys are the fixed permanent keys the golden pseudonyms below were
// captured under, at the commit before DetStream existed.
func goldenKeys() [2][]byte {
	k1 := make([]byte, SymmetricKeySize)
	for i := range k1 {
		k1[i] = byte(i)
	}
	return [2][]byte{k1, bytes.Repeat([]byte{0xa5}, SymmetricKeySize)}
}

// TestPseudonymsMatchGoldenVectors: pseudonyms are persisted — in the
// LRS's WAL, its snapshots, every shard file — so a change in how they are
// computed must not change one bit of them. These were captured with the
// per-call cipher path DetStream replaced.
func TestPseudonymsMatchGoldenVectors(t *testing.T) {
	golden := [2]map[string]string{{
		"":                      "8pAAtipJn9Cp85pq3S53gPBddq5KuZ/lpvabMUjCNj0OvLXetSyDvQioqTUYLJGZ0kNWUyiBYC+AnrODxf9dVg==",
		"alice":                 "8pVh2kMq+tCp85pq3S53gPBddq5KuZ/lpvabMUjCNj0OvLXetSyDvQioqTUYLJGZ0kNWUyiBYC+AnrODxf9dVg==",
		"item-000042":           "8ptpwk8ksuCZw6pe7y53gPBddq5KuZ/lpvabMUjCNj0OvLXetSyDvQioqTUYLJGZ0kNWUyiBYC+AnrODxf9dVg==",
		"bench-user-000007":     "8oFi00Qq9/3cgP8Y8B5HsMBtQa5KuZ/lpvabMUjCNj0OvLXetSyDvQioqTUYLJGZ0kNWUyiBYC+AnrODxf9dVg==",
		strings.Repeat("z", 62): "8q56zFAz5arTieAQp1QN+oonDNQww+Wf3IzhSzK4TEd0xs+kz1b5x3LS009iVuvjqDksKVL7GlX65Mn5v4UnLA==",
		"ünïcode":               "8pnDCkSKMLPGl/9q3S53gPBddq5KuZ/lpvabMUjCNj0OvLXetSyDvQioqTUYLJGZ0kNWUyiBYC+AnrODxf9dVg==",
	}, {
		"":                      "PpZhIfUUfo7cicQTziAmyRDu0RBQn24nIeDoSWfyJ7x48r3W1h9e3MzM4mp90DkeY71EYrhyUzYjSQ9FRhRqQA==",
		"alice":                 "PpMATZx3G47cicQTziAmyRDu0RBQn24nIeDoSWfyJ7x48r3W1h9e3MzM4mp90DkeY71EYrhyUzYjSQ9FRhRqQA==",
		"item-000042":           "Pp0IVZB5U77sufQn/CAmyRDu0RBQn24nIeDoSWfyJ7x48r3W1h9e3MzM4mp90DkeY71EYrhyUzYjSQ9FRhRqQA==",
		"bench-user-000007":     "PocDRJt3FqOp+qFh4xAW+SDe5hBQn24nIeDoSWfyJ7x48r3W1h9e3MzM4mp90DkeY71EYrhyUzYjSQ9FRhRqQA==",
		strings.Repeat("z", 62): "PqgbW49uBPSm875ptFpcs2qUq2oq5RRdW5qSMx2IXcYCiMesrGUkpra2mBAHqkNkGcc+GMIIKUxZM3U/PG4QOg==",
		"ünïcode":               "Pp+inZvX0e2z7aETziAmyRDu0RBQn24nIeDoSWfyJ7x48r3W1h9e3MzM4mp90DkeY71EYrhyUzYjSQ9FRhRqQA==",
	}}
	for k, key := range goldenKeys() {
		s, err := NewDetStream(key)
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range golden[k] {
			oneShot, err := Pseudonymize(key, id)
			if err != nil {
				t.Fatal(err)
			}
			viaStream, err := s.Pseudonymize(id)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]byte{"Pseudonymize": oneShot, "DetStream.Pseudonymize": viaStream} {
				if enc := base64.StdEncoding.EncodeToString(got); enc != want {
					t.Errorf("key %d, %s(%q) = %s, want golden %s", k, name, id, enc, want)
				}
			}
			raw, _ := base64.StdEncoding.DecodeString(want)
			if back, err := Depseudonymize(key, raw); err != nil || back != id {
				t.Errorf("key %d: Depseudonymize(golden %q) = %q, %v", k, id, back, err)
			}
		}
	}
}

// TestDetStreamKAT: the stream is the AES-256-CTR key stream under the
// all-zero IV, computed here with the standard library directly.
func TestDetStreamKAT(t *testing.T) {
	golden := goldenKeys()
	for _, key := range append(golden[:], mustKey(t)) {
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, IDBlockSize)
		cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(want, want)

		s, err := NewDetStream(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, IDBlockSize)
		if err := s.xor(got, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("key %x: stream %x, want %x", key[:4], got, want)
		}
		det, err := DetEncrypt(key, make([]byte, IDBlockSize))
		if err != nil || !bytes.Equal(det, want) {
			t.Errorf("DetEncrypt of zeros = %x, %v; want the stream", det, err)
		}
	}
}

func TestDetStreamRejectsOversizedBlocks(t *testing.T) {
	s, err := NewDetStream(mustKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.xor(make([]byte, IDBlockSize+1), make([]byte, IDBlockSize+1)); !errors.Is(err, ErrCiphertextSize) {
		t.Errorf("XOR of %d bytes: err = %v, want ErrCiphertextSize", IDBlockSize+1, err)
	}
	if _, err := NewDetStream([]byte("short")); !errors.Is(err, ErrKeySize) {
		t.Errorf("NewDetStream(short key): err = %v, want ErrKeySize", err)
	}
}

// TestOpenBlockAcceptsExactlyWhatUnpadIDAccepts: re-identifying a block
// and packing it as is must be the same as UnpadID then PadID — same
// verdict on every block, same bytes on every accepted one.
func TestOpenBlockAcceptsExactlyWhatUnpadIDAccepts(t *testing.T) {
	s, err := NewDetStream(mustKey(t))
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]byte
	for _, id := range []string{"", "x", "item-7", strings.Repeat("q", IDBlockSize-2)} {
		b, _ := PadID(id)
		blocks = append(blocks, b)
	}
	bad := func(mut func(b []byte)) []byte {
		b, _ := PadID("item-7")
		mut(b)
		return b
	}
	blocks = append(blocks,
		bad(func(b []byte) { b[0], b[1] = 0xFF, 0xFF }),       // the pseudo-item header
		bad(func(b []byte) { b[0], b[1] = 0, IDBlockSize-1 }), // header one past the max
		bad(func(b []byte) { b[IDBlockSize-1] = 1 }),          // nonzero tail
		bad(func(b []byte) { b[1] = 3 }),                      // header shorter than the id
	)
	for _, plain := range blocks {
		pseudonym := make([]byte, IDBlockSize)
		if err := s.xor(pseudonym, plain); err != nil {
			t.Fatal(err)
		}
		var got [IDBlockSize]byte
		openErr := s.OpenBlock(&got, pseudonym)
		id, unpadErr := UnpadID(plain)
		if (openErr == nil) != (unpadErr == nil) {
			t.Errorf("block %x: OpenBlock err %v, UnpadID err %v", plain[:4], openErr, unpadErr)
			continue
		}
		if openErr != nil {
			continue
		}
		if repadded, _ := PadID(id); !bytes.Equal(got[:], repadded) {
			t.Errorf("block for %q: OpenBlock %x, PadID(UnpadID) %x", id, got, repadded)
		}
	}
	var got [IDBlockSize]byte
	if err := s.OpenBlock(&got, make([]byte, IDBlockSize-1)); !errors.Is(err, ErrCiphertextSize) {
		t.Errorf("short pseudonym: err = %v, want ErrCiphertextSize", err)
	}
}
