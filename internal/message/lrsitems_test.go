package message

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// canonicalBodies are LRS get replies as this repository's stub and engine
// render them: message.Marshal of an LRSGetResponse.
func canonicalBodies(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, items := range [][]string{
		{},
		{"stub-item-0000", "stub-item-0001"},
		// Pseudonyms as the IA sends them to the LRS: base64 of 64 bytes.
		{Encode64(bytes.Repeat([]byte{0xfb}, 64)), Encode64(bytes.Repeat([]byte{0x3e}, 64))},
	} {
		body, err := Marshal(LRSGetResponse{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// FuzzLRSItems is the differential check on the strict reader: whenever it
// accepts a body, encoding/json reads the same items from it; whatever it
// refuses, LRSItems answers exactly as encoding/json does.
func FuzzLRSItems(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
	}
	for _, seed := range []string{
		`{"items":null}`,
		`{ "items": ["a", "b"] }`,
		`{"items":["a\"b"]}`,
		`{"items":["a"]}`,
		`{"ITEMS":["a"]}`, // encoding/json matches keys case-insensitively
		`{"items":["a"],"items":["b"]}`,
		`{"items":["a"]}trailing`,
		`{"items":["a",]}`,
		`{"items":["a""b"]}`,
		`{"items":["é"]}`,
		`{"items":[1]}`,
		`{"other":1,"items":["a"]}`,
		`{"items":[`,
		`]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp LRSGetResponse
		jsonErr := json.Unmarshal(body, &resp)
		if strict, ok := canonicalItems(nil, body); ok {
			if jsonErr != nil {
				t.Fatalf("strict reader accepted %q, encoding/json refused it: %v", body, jsonErr)
			}
			if !sameItems(strict, resp.Items) {
				t.Fatalf("%q: strict reader %q, encoding/json %q", body, strict, resp.Items)
			}
		}
		got, err := LRSItems(nil, body)
		if (err == nil) != (jsonErr == nil) {
			t.Fatalf("%q: LRSItems err %v, encoding/json err %v", body, err, jsonErr)
		}
		if err == nil && !sameItems(got, resp.Items) {
			t.Fatalf("%q: LRSItems %q, encoding/json %q", body, got, resp.Items)
		}
	})
}

func sameItems(got [][]byte, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if string(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// TestLRSItemsReadsCanonicalBodiesInPlace: the bodies the stub and engine
// emit take the strict path — items alias the body, nothing is allocated.
func TestLRSItemsReadsCanonicalBodiesInPlace(t *testing.T) {
	for _, body := range canonicalBodies(t) {
		items, ok := canonicalItems(nil, body)
		if !ok {
			t.Fatalf("strict reader refused the canonical body %s", body)
		}
		for i := range body {
			body[i] ^= 0x80 // visible through every item that aliases body
		}
		for _, it := range items {
			if len(it) > 0 && it[0] < 0x80 {
				t.Errorf("item %q is a copy, not a sub-slice of the body", it)
			}
		}
		for i := range body {
			body[i] ^= 0x80
		}
		dst := make([][]byte, 0, MaxRecommendations)
		if n := testing.AllocsPerRun(100, func() { LRSItems(dst[:0], body) }); n != 0 {
			t.Errorf("LRSItems on %d-byte canonical body: %.0f allocs, want 0", len(body), n)
		}
	}
	if _, err := LRSItems(nil, []byte(`] not a list [`)); err == nil {
		t.Error("LRSItems accepted a body encoding/json refuses")
	}
	pretty := []byte(fmt.Sprintf("{\n  \"items\": [%q]\n}", "x"))
	if items, err := LRSItems(nil, pretty); err != nil || len(items) != 1 || string(items[0]) != "x" {
		t.Errorf("pretty-printed body: %q, %v", items, err)
	}
}
