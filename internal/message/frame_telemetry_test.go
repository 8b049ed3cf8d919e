package message

import (
	"bytes"
	"errors"
	"testing"
)

// TestTelemetryFrameRoundTrip: a telemetry frame is structurally a
// single-slot frame under its own kind byte, so a snapshot body survives
// encode/decode intact and the header advertises the kind a frame server
// routes on without inspecting the body.
func TestTelemetryFrameRoundTrip(t *testing.T) {
	body := []byte(`{"node":"ua-0","role":"ua","seq":3,"epoch":9,"build":{}}`)
	data, err := AppendBatchFrame(nil, FrameTelemetry, 9,
		[]BatchEntry{{ID: 0, Kind: BatchKindPost, Body: body}})
	if err != nil {
		t.Fatalf("AppendBatchFrame: %v", err)
	}
	h, err := ParseFrameHeader(data)
	if err != nil {
		t.Fatalf("ParseFrameHeader: %v", err)
	}
	if h.Kind != FrameTelemetry {
		t.Fatalf("header kind = %d, want FrameTelemetry (%d)", h.Kind, FrameTelemetry)
	}
	if h.Count != 1 {
		t.Fatalf("header count = %d, want 1", h.Count)
	}
	epoch, entries, err := DecodeBatchFrame(data)
	if err != nil {
		t.Fatalf("DecodeBatchFrame: %v", err)
	}
	if epoch != 9 {
		t.Fatalf("epoch = %d, want 9", epoch)
	}
	if len(entries) != 1 || !bytes.Equal(entries[0].Body, body) {
		t.Fatalf("entries = %+v, want one entry with the snapshot body", entries)
	}
	if entries[0].Kind != BatchKindPost {
		t.Fatalf("entry kind = %q, want post", entries[0].Kind)
	}
}

// TestTelemetryFrameRequiresSingleSlot: the single-slot shape is
// enforced on both sides — encoding more than one entry fails, and a
// forged multi-count telemetry header is rejected by the parser.
func TestTelemetryFrameRequiresSingleSlot(t *testing.T) {
	two := []BatchEntry{
		{ID: 0, Kind: BatchKindPost, Body: []byte("a")},
		{ID: 1, Kind: BatchKindPost, Body: []byte("b")},
	}
	if _, err := AppendBatchFrame(nil, FrameTelemetry, 1, two); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("two-slot telemetry frame encoded: err = %v", err)
	}

	// Forge: take a two-entry batch frame and rewrite its kind byte to
	// FrameTelemetry. The header parser must refuse count != 1.
	data, err := AppendBatchFrame(nil, FrameBatch, 1, two)
	if err != nil {
		t.Fatal(err)
	}
	data[5] = FrameTelemetry
	if _, err := ParseFrameHeader(data); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("forged multi-slot telemetry header accepted: err = %v", err)
	}
}

// TestTelemetryFrameConstantSlotQuantum: telemetry slots obey the same
// quantized constant-size discipline as user traffic, so snapshot bodies
// do not leak fine-grained length on the wire.
func TestTelemetryFrameConstantSlotQuantum(t *testing.T) {
	mk := func(n int) int {
		data, err := AppendBatchFrame(nil, FrameTelemetry, 1,
			[]BatchEntry{{ID: 0, Kind: BatchKindPost, Body: bytes.Repeat([]byte("s"), n)}})
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	if a, b := mk(100), mk(101); a != b {
		t.Fatalf("frame sizes %d vs %d differ within a quantum", a, b)
	}
	h, err := ParseFrameHeader(func() []byte {
		data, _ := AppendBatchFrame(nil, FrameTelemetry, 1,
			[]BatchEntry{{ID: 0, Kind: BatchKindPost, Body: []byte("x")}})
		return data
	}())
	if err != nil {
		t.Fatal(err)
	}
	if h.SlotSize%SlotQuantum != 0 {
		t.Fatalf("slot size %d not a multiple of the quantum", h.SlotSize)
	}
}
