package message

import "bytes"

// LRSItems reads the item list of an LRS get reply, appending each item to
// dst. The canonical body this repository's engine and stub emit —
// `{"items":["…",…]}` with no whitespace and every item printable ASCII
// without escapes — is read in place: the items are sub-slices of body and
// nothing is allocated. Any other body (pretty-printed, reordered or
// unknown keys, null, escapes) goes through encoding/json exactly as an
// LRSGetResponse, so an unmodified LRS is read as it always was.
func LRSItems(dst [][]byte, body []byte) ([][]byte, error) {
	if items, ok := canonicalItems(dst, body); ok {
		return items, nil
	}
	var resp LRSGetResponse
	if err := Unmarshal(body, &resp); err != nil {
		return dst, err
	}
	for _, it := range resp.Items {
		dst = append(dst, []byte(it))
	}
	return dst, nil
}

// canonicalItems is LRSItems' strict reader. It accepts only bodies whose
// items encoding/json would decode to the same bytes (FuzzLRSItems checks
// that); on anything else it reports false with dst as it was.
func canonicalItems(dst [][]byte, body []byte) ([][]byte, bool) {
	const head, tail = `{"items":[`, `]}`
	n0 := len(dst)
	if len(body) < len(head)+len(tail) || !bytes.HasPrefix(body, []byte(head)) || !bytes.HasSuffix(body, []byte(tail)) {
		return dst, false
	}
	rest := body[len(head) : len(body)-len(tail)]
	for len(rest) > 0 {
		if rest[0] != '"' {
			return dst[:n0], false
		}
		end := 1
		for end < len(rest) && rest[end] != '"' {
			if c := rest[end]; c < 0x20 || c > 0x7e || c == '\\' {
				return dst[:n0], false
			}
			end++
		}
		if end == len(rest) {
			return dst[:n0], false
		}
		dst = append(dst, rest[1:end])
		rest = rest[end+1:]
		if len(rest) > 0 {
			if rest[0] != ',' || len(rest) == 1 {
				return dst[:n0], false
			}
			rest = rest[1:]
		}
	}
	return dst, true
}
