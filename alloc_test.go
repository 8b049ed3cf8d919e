package pprox_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"pprox/internal/cluster"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
)

// TestAllocationCeilings pins the heap allocations of the request path's
// hot operations. An allocation count is a property of the code, not of
// the host, so the ceilings hold under -race too (full_path_get reads
// about 8 % more there). Each ceiling is the operation's recorded
// baseline × 1.25, rounded down; a change that moves a count on purpose
// records the new baseline in the same change.
func TestAllocationCeilings(t *testing.T) {
	symKey, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	kp, err := ppcrypto.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	block, err := ppcrypto.PadID("user-12345")
	if err != nil {
		t.Fatal(err)
	}
	items := make([]string, message.MaxRecommendations)
	for i := range items {
		items[i] = fmt.Sprintf("item-%06d", i)
	}
	// One shuffle epoch's UA→IA envelope, framed into a recycled buffer.
	body := bytes.Repeat([]byte{0xC7}, 256)
	entries := make([]message.BatchEntry, 32)
	for i := range entries {
		entries[i] = message.BatchEntry{ID: i, Kind: message.BatchKindGet, Body: body}
	}
	var frame []byte
	var epoch uint64
	// The m3 shape: encryption and enclaves on both layers, no shuffle,
	// default (box) key material, frames UA→IA and REST IA→LRS, the stub
	// LRS.
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		UseStub: true, LRSFrontends: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cl := d.Client(30 * time.Second)
	ctx := context.Background()

	for _, tc := range []struct {
		name     string
		baseline float64
		op       func() error
	}{
		{"crypto_pseudonymize", 5, func() error {
			_, err := ppcrypto.Pseudonymize(symKey, "user-12345")
			return err
		}},
		{"crypto_oaep_encrypt", 15, func() error {
			_, err := ppcrypto.EncryptOAEP(kp.Public, block)
			return err
		}},
		{"itemlist_encode", 25, func() error {
			packed, err := message.EncodeItemList(items)
			if err != nil {
				return err
			}
			_, err = ppcrypto.SymEncrypt(symKey, packed)
			return err
		}},
		{"batch_marshal", 0, func() (err error) {
			epoch++
			frame, err = message.MarshalBatchEpoch(frame[:0], epoch, entries)
			return err
		}},
		{"full_path_get", 425, func() error {
			_, err := cl.Get(ctx, "bench-user")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opErr error
			got := testing.AllocsPerRun(50, func() {
				if err := tc.op(); err != nil && opErr == nil {
					opErr = err
				}
			})
			if opErr != nil {
				t.Fatal(opErr)
			}
			ceiling := math.Floor(tc.baseline * 1.25)
			if got > ceiling {
				t.Errorf("%s allocates %.0f times per op, ceiling %.0f (baseline %.0f)", tc.name, got, ceiling, tc.baseline)
			}
			t.Logf("%s: %.0f allocs/op (ceiling %.0f)", tc.name, got, ceiling)
		})
	}
}
