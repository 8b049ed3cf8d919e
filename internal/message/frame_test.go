package message

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestFrameRoundTripWithEpoch(t *testing.T) {
	in := []BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: []byte("opaque-get")},
		{ID: 1, Kind: BatchKindPost, Body: bytes.Repeat([]byte("x"), 300)},
		{ID: 2, Kind: BatchKindGet, Status: 503, Body: nil},
	}
	data, err := MarshalBatchEpoch(nil, 42, in)
	if err != nil {
		t.Fatalf("MarshalBatchEpoch: %v", err)
	}
	if !IsFrame(data) {
		t.Fatal("MarshalBatchEpoch did not produce a frame")
	}
	epoch, out, err := UnmarshalBatchEpoch(data)
	if err != nil {
		t.Fatalf("UnmarshalBatchEpoch: %v", err)
	}
	if epoch != 42 {
		t.Fatalf("epoch = %d, want 42", epoch)
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

// Every slot in a frame must have the same size — the constant-size
// discipline of §4.3 at frame granularity — and the payload must be that
// slot size times the count, quantized, with no per-entry length leaking.
func TestFrameSlotsAreConstantSize(t *testing.T) {
	in := []BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: []byte("a")},
		{ID: 1, Kind: BatchKindPost, Body: bytes.Repeat([]byte("b"), 200)},
		{ID: 2, Kind: BatchKindGet, Body: []byte{}},
	}
	data, err := MarshalBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseFrameHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.SlotSize%SlotQuantum != 0 {
		t.Fatalf("slot size %d not a multiple of the quantum", h.SlotSize)
	}
	if want := 3 * (slotHeaderSize + h.SlotSize); h.PayloadLen != want {
		t.Fatalf("payload = %d, want %d (3 constant-size slots)", h.PayloadLen, want)
	}
	if len(data) != h.FrameSize() {
		t.Fatalf("frame is %d bytes, header says %d", len(data), h.FrameSize())
	}
	// Two batches whose bodies differ in length (within a quantum) must
	// produce byte-identical frame geometry.
	other, err := MarshalBatch([]BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: bytes.Repeat([]byte("c"), 60)},
		{ID: 1, Kind: BatchKindPost, Body: bytes.Repeat([]byte("d"), 201)},
		{ID: 2, Kind: BatchKindGet, Body: []byte("ee")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(other) != len(data) {
		t.Fatalf("frames differ in size (%d vs %d) for same-quantum bodies", len(other), len(data))
	}
}

// A recycled encode buffer must not leak a previous frame's bytes through
// the padding tail.
func TestFrameEncodeIntoDirtyBuffer(t *testing.T) {
	dirty := bytes.Repeat([]byte{0xAB}, 4096)
	data, err := MarshalBatchEpoch(dirty[:0], 7, []BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: []byte("short")},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := UnmarshalBatchEpoch(data)
	if err != nil {
		t.Fatalf("decode from dirty buffer: %v", err)
	}
	if string(out[0].Body) != "short" {
		t.Fatalf("body = %q", out[0].Body)
	}
	h, _ := ParseFrameHeader(data)
	slot := data[FrameHeaderSize+slotHeaderSize : FrameHeaderSize+slotHeaderSize+h.SlotSize]
	for i := len("short") + 1; i < len(slot); i++ {
		if slot[i] != 0 {
			t.Fatalf("padding byte %d = %#x, want 0 (stale buffer leak)", i, slot[i])
		}
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	data := AppendErrorFrame(nil, 9, 503, "next hop unavailable")
	epoch, status, text, err := DecodeErrorFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 9 || status != 503 || text != "next hop unavailable" {
		t.Fatalf("got (%d, %d, %q)", epoch, status, text)
	}
	// Error frames are not entry frames.
	if _, _, err := DecodeBatchFrame(data); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("DecodeBatchFrame(error frame): err = %v", err)
	}
}

// Header bytes 6–7 must be a literal CRLF: it is what makes a
// frame-illiterate HTTP/1.x server terminate its request-line read and
// answer immediately, so the hopwire client's unsupported-peer detection
// never depends on a newline happening to occur in ciphertext. The
// decoder enforces it so a fuzzer or hostile peer cannot smuggle frames
// without the property.
func TestFrameHeaderCarriesCRLF(t *testing.T) {
	batch, err := MarshalBatchEpoch(nil, 1, []BatchEntry{{ID: 0, Kind: BatchKindGet, Body: []byte("b")}})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"batch": batch,
		"error": AppendErrorFrame(nil, 1, 500, "x"),
	} {
		if frame[6] != '\r' || frame[7] != '\n' {
			t.Errorf("%s frame header bytes 6-7 = %q, want CRLF", name, frame[6:8])
		}
		bad := append([]byte(nil), frame...)
		bad[6], bad[7] = 0, 0
		if _, err := ParseFrameHeader(bad); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s frame without CRLF: err = %v, want ErrMalformedFrame", name, err)
		}
	}
}

func TestFrameDecodeRejectsBadInput(t *testing.T) {
	good, err := MarshalBatchEpoch(nil, 1, []BatchEntry{
		{ID: 0, Kind: BatchKindGet, Body: []byte("body")},
		{ID: 1, Kind: BatchKindPost, Body: []byte("body2")},
	})
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", []byte{}, ErrNotFrame},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), ErrNotFrame},
		{"bad version", mutate(func(b []byte) { b[4] = 99 }), ErrMalformedFrame},
		{"unknown frame kind", mutate(func(b []byte) { b[5] = 77 }), ErrMalformedFrame},
		{"truncated header", good[:FrameHeaderSize-1], ErrMalformedFrame},
		{"truncated payload", good[:len(good)-3], ErrMalformedFrame},
		{"trailing garbage", append(append([]byte(nil), good...), 0xFF), ErrMalformedFrame},
		{"zero count", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[16:20], 0) }), ErrMalformedFrame},
		{"oversized count", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[16:20], 1<<24) }), ErrMalformedFrame},
		{"oversized payload len", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[24:28], MaxFramePayload+1) }), ErrMalformedFrame},
		{"slot size mismatch", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[20:24], SlotQuantum*100) }), ErrMalformedFrame},
		{"unquantized slot size", mutate(func(b []byte) { binary.BigEndian.PutUint32(b[20:24], 65) }), ErrMalformedFrame},
		{"duplicate ids", mutate(func(b []byte) {
			h, _ := ParseFrameHeader(b)
			second := FrameHeaderSize + slotHeaderSize + h.SlotSize
			binary.BigEndian.PutUint32(b[second:second+4], 0)
		}), ErrMalformedFrame},
		{"bad entry kind code", mutate(func(b []byte) { b[FrameHeaderSize+4] = 9 }), ErrMalformedFrame},
		{"broken padding", mutate(func(b []byte) {
			h, _ := ParseFrameHeader(b)
			// Zero the whole first slot body: no 0x80 terminator anywhere.
			clear(b[FrameHeaderSize+slotHeaderSize : FrameHeaderSize+slotHeaderSize+h.SlotSize])
		}), ErrMalformedFrame},
	}
	for _, tc := range cases {
		if _, _, err := UnmarshalBatchEpoch(tc.data); err == nil {
			t.Errorf("%s: decode accepted bad input", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			// Bad magic falls through to the JSON path, which reports
			// ErrMalformedFrame; accept either classification there.
			if !(errors.Is(tc.want, ErrNotFrame) && errors.Is(err, ErrMalformedFrame)) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
		}
	}
}

// The encoder must reject entries the frame cannot represent instead of
// truncating them.
func TestFrameEncodeRejectsUnrepresentable(t *testing.T) {
	cases := []struct {
		name    string
		entries []BatchEntry
	}{
		{"no entries", nil},
		{"negative id", []BatchEntry{{ID: -1}}},
		{"huge id", []BatchEntry{{ID: MaxFrameEntries + 1}}},
		{"bad kind", []BatchEntry{{ID: 0, Kind: "weird"}}},
		{"status overflow", []BatchEntry{{ID: 0, Status: 1 << 17}}},
	}
	for _, tc := range cases {
		if _, err := MarshalBatch(tc.entries); err == nil {
			t.Errorf("%s: encoder accepted it", tc.name)
		}
	}
}

// The JSON v1 envelope of PR 7's rolling upgrade is retired: a receiver
// refuses it as not a frame instead of parsing it.
func TestUnmarshalBatchRejectsLegacyJSON(t *testing.T) {
	legacy := []byte(`{"v":1,"entries":[{"id":0,"kind":"get","body":"bGVnYWN5"}]}`)
	if IsFrame(legacy) {
		t.Fatal("JSON envelope sniffed as a frame")
	}
	if _, err := UnmarshalBatch(legacy); !errors.Is(err, ErrNotFrame) {
		t.Fatalf("UnmarshalBatch(JSON) err = %v, want ErrNotFrame", err)
	}
}

// The batch marshal hot path must stay flat: one buffer for the frame,
// one slice header escape — not per-entry allocations.
func TestMarshalBatchAllocsFlat(t *testing.T) {
	entries := make([]BatchEntry, 32)
	for i := range entries {
		entries[i] = BatchEntry{ID: i, Kind: BatchKindGet, Body: bytes.Repeat([]byte("x"), 256)}
	}
	buf := make([]byte, 0, 1<<16)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := MarshalBatchEpoch(buf, 1, entries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("MarshalBatchEpoch into a pre-sized buffer allocates %.0f objects/op, want ≤ 1", allocs)
	}
}
