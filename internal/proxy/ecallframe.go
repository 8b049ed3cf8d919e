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
// reply). Fill, on the response ECALL, marks the coalescing leader: only it
// writes the fetched list into the recommendation cache, so N coalesced
// followers do not re-fill N times.
type iaGetCall struct {
	Handle []byte
	Fill   bool
	Body   []byte
}

// appendIAGetCall encodes an iaGetCall: uvarint handle length, handle,
// one fill byte, body.
func appendIAGetCall(dst []byte, handle string, fill bool, body []byte) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(handle)+1+len(body))
	dst = appendField(dst, handle)
	dst = append(dst, boolByte(fill))
	return append(dst, body...)
}

func decodeIAGetCall(in []byte) (iaGetCall, error) {
	handle, rest, ok := readField(in)
	if !ok || len(rest) == 0 || rest[0] > 1 {
		return iaGetCall{}, errFrame
	}
	return iaGetCall{Handle: handle, Fill: rest[0] == 1, Body: rest[1:]}, nil
}

// iaGetResult is the ia/get ECALL output when the recommendation cache is
// enabled. On a hit, Body is the finished GetResponse — sealed under the
// client's k_u inside the ECALL — and no LRS hop is needed. On a miss,
// Body is the LRSGet request to forward and Key is the coalescing key
// (tenant + user pseudonym, both of which the host sees on the LRS link
// anyway) under which concurrent misses share one fetch.
type iaGetResult struct {
	Hit  bool
	Key  []byte
	Body []byte
}

// appendIAGetResult encodes an iaGetResult: one hit byte, uvarint key
// length, key, body.
func appendIAGetResult(dst []byte, hit bool, key string, body []byte) []byte {
	dst = slices.Grow(dst, 1+binary.MaxVarintLen64+len(key)+len(body))
	dst = append(dst, boolByte(hit))
	dst = appendField(dst, key)
	return append(dst, body...)
}

func decodeIAGetResult(in []byte) (iaGetResult, error) {
	if len(in) == 0 || in[0] > 1 {
		return iaGetResult{}, errFrame
	}
	key, body, ok := readField(in[1:])
	if !ok {
		return iaGetResult{}, errFrame
	}
	return iaGetResult{Hit: in[0] == 1, Key: key, Body: body}, nil
}

// parkedKey is the pending-response state the ia/get ECALL parks in the
// EPC KV store until the LRS answers: the client's temporary key, the
// tenant whose kIA decodes the response, and the user pseudonym the
// response ECALL fills the cache under. It never leaves the enclave.
type parkedKey struct {
	Ku     []byte
	Tenant []byte
	User   []byte
}

// appendParkedKey encodes a parkedKey: k_u and the tenant as
// length-prefixed fields, the user pseudonym as the trailing bytes.
func appendParkedKey(dst, ku []byte, tenant, user string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ku)))
	dst = append(dst, ku...)
	dst = appendField(dst, tenant)
	return append(dst, user...)
}

func decodeParkedKey(in []byte) (parkedKey, error) {
	ku, rest, ok := readField(in)
	if !ok {
		return parkedKey{}, errFrame
	}
	tenant, user, ok := readField(rest)
	if !ok {
		return parkedKey{}, errFrame
	}
	return parkedKey{Ku: ku, Tenant: tenant, User: user}, nil
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

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
