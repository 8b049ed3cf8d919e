package proxy

import (
	"encoding/binary"
	"errors"
	"slices"
)

// The IA's get path crosses the host↔enclave boundary twice per request
// and parks state in the EPC between the crossings. None of these frames
// leaves the IA process, so they are binary, not JSON: a field is a uvarint
// length and its bytes, and the one large field — an LRS request or reply,
// a sealed GetResponse — is the frame's trailing bytes, neither copied nor
// validated on the way in. Decoders return sub-slices of their input.

// errFrame reports a malformed host↔enclave frame.
var errFrame = errors.New("proxy: malformed enclave frame")

// iaGetCall frames the IA get-path ECALLs: the host-chosen handle under
// which ia/get parks the temporary key k_u in the EPC key-value store until
// the LRS answers, and the opaque body (the UA's request, then the LRS's
// reply).
type iaGetCall struct {
	Handle []byte
	Body   []byte
}

// appendIAGetCall encodes an iaGetCall: uvarint handle length, handle,
// body.
func appendIAGetCall(dst []byte, handle string, body []byte) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(handle)+len(body))
	dst = appendField(dst, handle)
	return append(dst, body...)
}

func decodeIAGetCall(in []byte) (iaGetCall, error) {
	handle, body, ok := readField(in)
	if !ok {
		return iaGetCall{}, errFrame
	}
	return iaGetCall{Handle: handle, Body: body}, nil
}

func appendField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readField splits a uvarint-length-prefixed field off in, refusing a
// length the input does not hold.
func readField(in []byte) (field, rest []byte, ok bool) {
	n, k := binary.Uvarint(in)
	if k <= 0 || n > uint64(len(in)-k) {
		return nil, nil, false
	}
	end := k + int(n)
	return in[k:end:end], in[end:], true
}
