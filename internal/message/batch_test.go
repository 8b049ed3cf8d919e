package message

import (
	"bytes"
	"errors"
	"testing"
)

func TestBatchEnvelopeRoundTrip(t *testing.T) {
	in := []BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: []byte("opaque-0")},
		{ID: 1, Kind: BatchKindPost, Body: []byte("opaque-1")},
		{ID: 2, Kind: BatchKindGet, Status: 503, Body: nil},
	}
	data, err := MarshalBatchEpoch(nil, 0, in)
	if err != nil {
		t.Fatalf("MarshalBatchEpoch: %v", err)
	}
	_, out, err := UnmarshalBatchEpoch(data)
	if err != nil {
		t.Fatalf("UnmarshalBatch: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("entries = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Kind != in[i].Kind ||
			out[i].Status != in[i].Status || !bytes.Equal(out[i].Body, in[i].Body) {
			t.Errorf("entry %d round-tripped to %+v, want %+v", i, out[i], in[i])
		}
	}
}

// TestBatchEnvelopeRejectsBadInput: anything but a well-formed frame is
// refused — JSON of any shape as not a frame, broken frames as malformed
// (frame_test.go covers every header and slot fault).
func TestBatchEnvelopeRejectsBadInput(t *testing.T) {
	good, err := MarshalBatchEpoch(nil, 0, []BatchEntry{{ID: 3, Kind: BatchKindGet}, {ID: 4, Kind: BatchKindPost}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseFrameHeader(good)
	if err != nil {
		t.Fatal(err)
	}
	// Give the second slot the first slot's id.
	dup := append([]byte(nil), good...)
	second := FrameHeaderSize + slotHeaderSize + h.SlotSize
	copy(dup[second:second+4], good[FrameHeaderSize:FrameHeaderSize+4])
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrNotFrame},
		{"not json", []byte("{"), ErrNotFrame},
		{"json envelope", []byte(`{"v":1,"entries":[{"id":0}]}`), ErrNotFrame},
		{"truncated frame", good[:len(good)-1], ErrMalformedFrame},
		{"duplicate ids", dup, ErrMalformedFrame},
	}
	for _, tc := range cases {
		if _, _, err := UnmarshalBatchEpoch(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestBatchKindPaths(t *testing.T) {
	for kind, path := range map[string]string{
		BatchKindGet:  QueriesPath,
		BatchKindPost: EventsPath,
	} {
		got, ok := BatchKindPath(kind)
		if !ok || got != path {
			t.Errorf("BatchKindPath(%q) = %q/%v, want %q", kind, got, ok, path)
		}
	}
	if _, ok := BatchKindPath("nope"); ok {
		t.Error("BatchKindPath accepted an unknown kind")
	}
}
