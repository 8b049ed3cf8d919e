package message

import (
	"testing"

	"pprox/internal/ppcrypto"
)

// Fuzz targets guard the parsers that face adversary-controlled bytes:
// the proxy layers and the user-side library must never panic on hostile
// input, only reject it. Run with `go test -fuzz=FuzzDecodeItemList
// ./internal/message` to explore; the seed corpus runs in normal tests.

func FuzzDecodeItemList(f *testing.F) {
	good, _ := EncodeItemList([]string{"a", "b"})
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, MaxRecommendations*ppcrypto.IDBlockSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := DecodeItemList(data)
		if err == nil && len(items) > MaxRecommendations {
			t.Fatalf("decoded %d items, above maximum", len(items))
		}
	})
}

func FuzzUnpadID(f *testing.F) {
	block, _ := ppcrypto.PadID("user-1")
	f.Add(block)
	f.Add(make([]byte, ppcrypto.IDBlockSize))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		id, err := ppcrypto.UnpadID(data)
		if err == nil && len(id) > ppcrypto.IDBlockSize-2 {
			t.Fatalf("unpadded %d bytes from a %d-byte block", len(id), ppcrypto.IDBlockSize)
		}
	})
}

func FuzzUnmarshalPostRequest(f *testing.F) {
	f.Add([]byte(`{"enc_user":"AAAA","enc_item":"BBBB"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req PostRequest
		_ = Unmarshal(data, &req) // must never panic
	})
}

func FuzzDecode64(f *testing.F) {
	f.Add("QUFBQQ==")
	f.Add("!!!")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		_, _ = Decode64(s) // must never panic
	})
}

func FuzzDecodeBatchFrame(f *testing.F) {
	good, _ := MarshalBatchEpoch(nil, 7, []BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: []byte("opaque")},
		{ID: 1, Kind: BatchKindPost, Body: []byte("opaque-2")},
	})
	f.Add(good)
	f.Add(good[:FrameHeaderSize])
	f.Add(good[:len(good)-1])
	f.Add(AppendErrorFrame(nil, 1, 503, "down"))
	// Kinds 3 (per-message frames) and 4 (pushed telemetry) are
	// retired: a frame relabelled with either, whole or truncated, must
	// be refused like any unknown kind.
	one, _ := MarshalBatchEpoch(nil, 3,
		[]BatchEntry{{ID: 0, Kind: BatchKindPost, Body: []byte("opaque")}})
	for _, r := range []struct {
		frame []byte
		kind  byte
	}{{good, 4}, {one, 3}, {one[:len(one)-2], 3}} {
		retired := append([]byte(nil), r.frame...)
		retired[5] = r.kind
		f.Add(retired)
	}
	f.Add([]byte("PPXB"))
	f.Add([]byte(`{"v":1,"entries":[{"id":0}]}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic or over-read; on success the contract holds:
		// bounded entry count, unique in-range ids, bodies inside data.
		_, entries, err := UnmarshalBatchEpoch(data)
		if err != nil {
			return
		}
		if data[5] != FrameBatch {
			t.Fatalf("decoded entries from a kind-%d frame", data[5])
		}
		if len(entries) == 0 || len(entries) > MaxFrameEntries {
			t.Fatalf("accepted %d entries", len(entries))
		}
		seen := make(map[int]struct{}, len(entries))
		for _, e := range entries {
			if e.ID < 0 {
				t.Fatalf("accepted negative id %d", e.ID)
			}
			if _, dup := seen[e.ID]; dup {
				t.Fatalf("accepted duplicate id %d", e.ID)
			}
			seen[e.ID] = struct{}{}
			if len(e.Body) > len(data) {
				t.Fatalf("body of %d bytes from a %d-byte input", len(e.Body), len(data))
			}
		}
		_, _, _, _ = epochStatusTextProbe(data)
	})
}

// epochStatusTextProbe exercises the error-frame decoder on the same
// corpus; both decoders face the same adversary-controlled stream.
func epochStatusTextProbe(data []byte) (uint64, int, string, error) {
	return DecodeErrorFrame(data)
}
