package message

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// This file is the binary batch-frame codec, the one wire format of the
// UA→IA link — over HTTP /batch or over hopwire (DESIGN.md §4h). No
// base64, no intermediate JSON, and the encoder appends into
// caller-provided (poolable) buffers.
//
// Frame layout (big-endian):
//
//	[magic "PPXB" 4] [version 1] [frame kind 1] [CRLF 2]
//	[epoch uint64]   [count uint32] [slot size uint32] [payload len uint32]
//	payload
//
// A batch frame's payload is `count` fixed-size slots:
//
//	[id uint32] [entry kind byte] [status uint16] [body, padded to slot size]
//
// Every slot in a frame has the same slot size — the maximal body length
// rounded up to SlotQuantum, padded ISO/IEC 7816-4 style (0x80 then
// zeros) — so a wire observer cannot distinguish the messages inside a
// frame by size, preserving the §4.3 constant-size discipline at frame
// granularity. Ids are the sequential slot positions minted after the
// shuffle.
//
// An error frame (kind FrameError) carries no slots: its payload is
// [status uint16][constant-class text], count and slot size are zero. It
// prices a whole-envelope failure the way an HTTP error status did.

// Frame layout constants.
const (
	// FrameVersion is the binary frame wire version. (Version 1 was the
	// retired JSON envelope; the numbers stay disjoint so a hexdump is
	// unambiguous.)
	FrameVersion = 2

	// FrameHeaderSize is the fixed frame header length in bytes.
	FrameHeaderSize = 28

	// SlotQuantum is the slot-size rounding step. Bodies on this link are
	// already constant-size ciphertext; the quantum coarsens whatever
	// residual variation framing overhead could introduce.
	SlotQuantum = 64

	// MaxFramePayload bounds a frame payload (matches the proxy's batch
	// body bound), so a hostile length field cannot drive allocation.
	MaxFramePayload = 8 << 20

	// MaxFrameEntries bounds the slot count of one frame.
	MaxFrameEntries = 1 << 16

	// slotHeaderSize is the per-slot prefix: id + kind + status.
	slotHeaderSize = 4 + 1 + 2

	// maxErrorText bounds the text of an error frame.
	maxErrorText = 1 << 10
)

// Frame kinds.
const (
	// FrameBatch carries one shuffle epoch of slots (request direction)
	// or its results (response direction).
	FrameBatch byte = 1
	// FrameError carries a whole-exchange failure: status plus
	// constant-class text, no slots.
	FrameError byte = 2
)

// Kinds 3 (one-slot per-message frames, from when the IA→LRS hop rode
// frames) and 4 (pushed telemetry snapshots) are retired: the parser
// refuses them like any unknown kind.

// frameMagic starts every binary frame.
var frameMagic = [4]byte{'P', 'P', 'X', 'B'}

// Header bytes 6–7 are a literal CRLF, not free reserved space. An
// HTTP/1.x server that receives a frame reads the request line until it
// sees a newline; encrypted slot bodies may contain none, so without this
// a UA pointed at an HTTP-only peer by mistake would sit in a wedged
// write until its exchange deadline. With CRLF at a fixed offset the
// first 8 bytes always terminate the request line: such a server answers
// 400 and closes at once, and the UA gets a fast transport error for its
// breaker and retry ladder.
const (
	frameCR byte = '\r'
	frameLF byte = '\n'
)

// ErrNotFrame reports bytes that do not start with the frame magic — for
// hopwire, the sign that the peer does not speak the protocol. Every other
// frame fault, version included, wraps ErrMalformedFrame.
var ErrNotFrame = errors.New("message: not a batch frame")

// entry kind codes inside a slot.
const (
	kindCodeNone byte = 0 // response entries carry no kind
	kindCodePost byte = 1
	kindCodeGet  byte = 2
)

func kindCode(kind string) (byte, bool) {
	switch kind {
	case "":
		return kindCodeNone, true
	case BatchKindPost:
		return kindCodePost, true
	case BatchKindGet:
		return kindCodeGet, true
	}
	return 0, false
}

func kindFromCode(c byte) (string, bool) {
	switch c {
	case kindCodeNone:
		return "", true
	case kindCodePost:
		return BatchKindPost, true
	case kindCodeGet:
		return BatchKindGet, true
	}
	return "", false
}

// IsFrame reports whether data starts with the binary frame magic.
func IsFrame(data []byte) bool {
	return len(data) >= len(frameMagic) && [4]byte(data[:4]) == frameMagic
}

// FrameHeader is the parsed fixed-size frame prefix.
type FrameHeader struct {
	Kind       byte
	Epoch      uint64
	Count      int
	SlotSize   int
	PayloadLen int
}

// FrameSize returns the total frame length including the header.
func (h FrameHeader) FrameSize() int { return FrameHeaderSize + h.PayloadLen }

// ParseFrameHeader validates and parses the fixed-size frame prefix. It
// needs only the first FrameHeaderSize bytes, so a stream receiver can
// bound its payload read before buffering anything: every length field is
// checked against MaxFramePayload / MaxFrameEntries here, and for slotted
// kinds the payload length must equal count × slot envelope exactly.
func ParseFrameHeader(data []byte) (FrameHeader, error) {
	if !IsFrame(data) {
		return FrameHeader{}, ErrNotFrame
	}
	if len(data) < FrameHeaderSize {
		return FrameHeader{}, fmt.Errorf("%w: truncated header (%d bytes)", ErrMalformedFrame, len(data))
	}
	if v := data[4]; v != FrameVersion {
		return FrameHeader{}, fmt.Errorf("%w: got frame v%d, want v%d", ErrMalformedFrame, v, FrameVersion)
	}
	if data[6] != frameCR || data[7] != frameLF {
		return FrameHeader{}, fmt.Errorf("%w: missing header CRLF", ErrMalformedFrame)
	}
	h := FrameHeader{
		Kind:       data[5],
		Epoch:      binary.BigEndian.Uint64(data[8:16]),
		Count:      int(binary.BigEndian.Uint32(data[16:20])),
		SlotSize:   int(binary.BigEndian.Uint32(data[20:24])),
		PayloadLen: int(binary.BigEndian.Uint32(data[24:28])),
	}
	if h.PayloadLen > MaxFramePayload {
		return FrameHeader{}, fmt.Errorf("%w: payload %d exceeds bound", ErrMalformedFrame, h.PayloadLen)
	}
	switch h.Kind {
	case FrameBatch:
		if h.Count == 0 {
			return FrameHeader{}, fmt.Errorf("%w: no entries", ErrMalformedFrame)
		}
		if h.Count > MaxFrameEntries {
			return FrameHeader{}, fmt.Errorf("%w: %d entries exceeds bound", ErrMalformedFrame, h.Count)
		}
		if h.SlotSize <= 0 || h.SlotSize%SlotQuantum != 0 {
			return FrameHeader{}, fmt.Errorf("%w: bad slot size %d", ErrMalformedFrame, h.SlotSize)
		}
		if h.PayloadLen != h.Count*(slotHeaderSize+h.SlotSize) {
			return FrameHeader{}, fmt.Errorf("%w: payload length %d does not match %d slots of %d",
				ErrMalformedFrame, h.PayloadLen, h.Count, h.SlotSize)
		}
	case FrameError:
		if h.Count != 0 || h.SlotSize != 0 {
			return FrameHeader{}, fmt.Errorf("%w: error frame with slots", ErrMalformedFrame)
		}
		if h.PayloadLen < 2 || h.PayloadLen > 2+maxErrorText {
			return FrameHeader{}, fmt.Errorf("%w: error frame payload %d", ErrMalformedFrame, h.PayloadLen)
		}
	default:
		return FrameHeader{}, fmt.Errorf("%w: unknown frame kind %d", ErrMalformedFrame, h.Kind)
	}
	return h, nil
}

// slotSizeFor returns the constant slot size for a set of entries: the
// maximal body length plus the mandatory 0x80 pad byte, rounded up to
// SlotQuantum.
func slotSizeFor(entries []BatchEntry) int {
	max := 0
	for _, e := range entries {
		if len(e.Body) > max {
			max = len(e.Body)
		}
	}
	return (max + 1 + SlotQuantum - 1) / SlotQuantum * SlotQuantum
}

// MarshalBatchEpoch appends one batch frame tagged with an epoch id to
// dst and returns the extended slice; the epoch id lets a
// persistent-connection transport match a pooled response to its
// request. dst may come from a pool (pass nil for a fresh buffer): the
// encoder grows it once to the exact frame size and writes in place — no
// intermediate buffers, no base64.
func MarshalBatchEpoch(dst []byte, epoch uint64, entries []BatchEntry) ([]byte, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("%w: no entries", ErrMalformedFrame)
	}
	if len(entries) > MaxFrameEntries {
		return nil, fmt.Errorf("%w: %d entries exceeds bound", ErrMalformedFrame, len(entries))
	}
	slotSize := slotSizeFor(entries)
	payloadLen := len(entries) * (slotHeaderSize + slotSize)
	if payloadLen > MaxFramePayload {
		return nil, fmt.Errorf("%w: payload %d exceeds bound", ErrMalformedFrame, payloadLen)
	}

	off := len(dst)
	dst = slices.Grow(dst, FrameHeaderSize+payloadLen)
	dst = dst[:off+FrameHeaderSize+payloadLen]
	buf := dst[off:]

	copy(buf, frameMagic[:])
	buf[4] = FrameVersion
	buf[5] = FrameBatch
	buf[6], buf[7] = frameCR, frameLF
	binary.BigEndian.PutUint64(buf[8:16], epoch)
	binary.BigEndian.PutUint32(buf[16:20], uint32(len(entries)))
	binary.BigEndian.PutUint32(buf[20:24], uint32(slotSize))
	binary.BigEndian.PutUint32(buf[24:28], uint32(payloadLen))

	p := buf[FrameHeaderSize:]
	for _, e := range entries {
		if e.ID < 0 || e.ID > MaxFrameEntries {
			return nil, fmt.Errorf("%w: id %d out of range", ErrMalformedFrame, e.ID)
		}
		kc, ok := kindCode(e.Kind)
		if !ok {
			return nil, fmt.Errorf("%w: unknown entry kind %q", ErrMalformedFrame, e.Kind)
		}
		if e.Status < 0 || e.Status > 0xFFFF {
			return nil, fmt.Errorf("%w: status %d out of range", ErrMalformedFrame, e.Status)
		}
		binary.BigEndian.PutUint32(p[0:4], uint32(e.ID))
		p[4] = kc
		binary.BigEndian.PutUint16(p[5:7], uint16(e.Status))
		body := p[slotHeaderSize : slotHeaderSize+slotSize]
		n := copy(body, e.Body)
		body[n] = 0x80
		// dst may be a recycled buffer: the padding tail must be zeroed
		// explicitly or stale bytes from a previous frame leak out.
		clear(body[n+1:])
		p = p[slotHeaderSize+slotSize:]
	}
	return dst, nil
}

// AppendErrorFrame appends an error frame pricing a whole exchange with
// one status and constant-class text.
func AppendErrorFrame(dst []byte, epoch uint64, status int, text string) []byte {
	if status < 0 || status > 0xFFFF {
		status = 0
	}
	if len(text) > maxErrorText {
		text = text[:maxErrorText]
	}
	payloadLen := 2 + len(text)
	off := len(dst)
	dst = slices.Grow(dst, FrameHeaderSize+payloadLen)
	dst = dst[:off+FrameHeaderSize+payloadLen]
	buf := dst[off:]

	copy(buf, frameMagic[:])
	buf[4] = FrameVersion
	buf[5] = FrameError
	buf[6], buf[7] = frameCR, frameLF
	binary.BigEndian.PutUint64(buf[8:16], epoch)
	binary.BigEndian.PutUint32(buf[16:20], 0)
	binary.BigEndian.PutUint32(buf[20:24], 0)
	binary.BigEndian.PutUint32(buf[24:28], uint32(payloadLen))
	binary.BigEndian.PutUint16(buf[FrameHeaderSize:FrameHeaderSize+2], uint16(status))
	copy(buf[FrameHeaderSize+2:], text)
	return dst
}

// UnmarshalBatchEpoch parses and validates a batch frame, returning its
// epoch id (which a receiver echoes on the response frame) and entries.
// Decoded entry bodies alias data — the caller owns data and must not
// recycle it while the entries live. Entry ids are validated unique and
// in range, so a receiver can key per-message results by id without
// aliasing.
func UnmarshalBatchEpoch(data []byte) (uint64, []BatchEntry, error) {
	h, err := ParseFrameHeader(data)
	if err != nil {
		return 0, nil, err
	}
	if h.Kind == FrameError {
		return 0, nil, fmt.Errorf("%w: error frame has no entries", ErrMalformedFrame)
	}
	if len(data) != h.FrameSize() {
		return 0, nil, fmt.Errorf("%w: frame is %d bytes, header says %d", ErrMalformedFrame, len(data), h.FrameSize())
	}
	entries := make([]BatchEntry, h.Count)
	seen := make(map[int]struct{}, h.Count)
	p := data[FrameHeaderSize:]
	for i := range entries {
		id := int(binary.BigEndian.Uint32(p[0:4]))
		if id > MaxFrameEntries {
			return 0, nil, fmt.Errorf("%w: id %d out of range", ErrMalformedFrame, id)
		}
		if _, dup := seen[id]; dup {
			return 0, nil, fmt.Errorf("%w: duplicate id %d", ErrMalformedFrame, id)
		}
		seen[id] = struct{}{}
		kind, ok := kindFromCode(p[4])
		if !ok {
			return 0, nil, fmt.Errorf("%w: unknown entry kind code %d", ErrMalformedFrame, p[4])
		}
		status := int(binary.BigEndian.Uint16(p[5:7]))
		body, err := unpadSlot(p[slotHeaderSize : slotHeaderSize+h.SlotSize])
		if err != nil {
			return 0, nil, err
		}
		entries[i] = BatchEntry{ID: id, Kind: kind, Status: status, Body: body}
		p = p[slotHeaderSize+h.SlotSize:]
	}
	return h.Epoch, entries, nil
}

// DecodeErrorFrame parses an error frame into its status and text.
func DecodeErrorFrame(data []byte) (epoch uint64, status int, text string, err error) {
	h, perr := ParseFrameHeader(data)
	if perr != nil {
		return 0, 0, "", perr
	}
	if h.Kind != FrameError {
		return 0, 0, "", fmt.Errorf("%w: frame kind %d is not an error frame", ErrMalformedFrame, h.Kind)
	}
	if len(data) != h.FrameSize() {
		return 0, 0, "", fmt.Errorf("%w: frame is %d bytes, header says %d", ErrMalformedFrame, len(data), h.FrameSize())
	}
	p := data[FrameHeaderSize:]
	return h.Epoch, int(binary.BigEndian.Uint16(p[0:2])), string(p[2:]), nil
}

// unpadSlot strips the 0x80-then-zeros padding, returning the body as a
// sub-slice of the slot.
func unpadSlot(p []byte) ([]byte, error) {
	i := len(p) - 1
	for i >= 0 && p[i] == 0 {
		i--
	}
	if i < 0 || p[i] != 0x80 {
		return nil, fmt.Errorf("%w: malformed slot padding", ErrMalformedFrame)
	}
	if i == 0 {
		// Keep zero-length bodies nil: an empty body round-trips as nil.
		return nil, nil
	}
	return p[:i], nil
}
