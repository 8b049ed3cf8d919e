// Package message defines the REST/JSON wire format exchanged between the
// user-side library, the two proxy layers, and the legacy recommendation
// system (LRS). The format follows §4.2 of the PProx paper: requests and
// payloads are JSON, encrypted content travels in base64 (§5), and all
// encrypted fields have constant size — identifiers are padded to fixed
// blocks and recommendation lists to a maximum length (§4.3) — so a network
// observer cannot distinguish messages by size.
package message

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"

	"pprox/internal/ppcrypto"
)

// MaxRecommendations is the maximal size of a recommendation list (§4.3:
// "The list of items returned by the LRS has a maximal size (20 in our
// implementation) and we use padding to fill in missing entries").
const MaxRecommendations = 20

// API paths. The user-side library exposes the exact same REST API as the
// LRS (§2.1), so the same paths are served at every hop.
const (
	// EventsPath accepts post(u, i[, p]) feedback insertions.
	EventsPath = "/events"
	// QueriesPath accepts get(u) recommendation queries.
	QueriesPath = "/queries"
	// HealthPath reports liveness.
	HealthPath = "/healthz"
	// BatchPath accepts one batch frame per shuffle epoch on the UA→IA
	// link (the request pipeline, DESIGN.md §4f), the only route an IA
	// serves. The LRS never serves it: the IA demultiplexes and speaks
	// the legacy per-message API downstream.
	BatchPath = "/batch"
)

// Batch entry kinds, the request-direction dispatch tag standing in for
// the per-message URL path.
const (
	// BatchKindPost marks a feedback insertion (EventsPath).
	BatchKindPost = "post"
	// BatchKindGet marks a recommendation query (QueriesPath).
	BatchKindGet = "get"
)

// Errors reported by the codec.
var (
	// ErrTooManyItems reports a recommendation list longer than
	// MaxRecommendations.
	ErrTooManyItems = errors.New("message: recommendation list exceeds maximum size")

	// ErrMalformedList reports an item-list block of the wrong size.
	ErrMalformedList = errors.New("message: malformed fixed-size item list")

	// ErrMalformedFrame reports a malformed batch frame: an unsupported
	// frame version or a structural fault (duplicate ids, no entries,
	// bad sizes). Bytes that are no frame at all report ErrNotFrame.
	ErrMalformedFrame = errors.New("message: malformed batch frame")
)

// PostRequest is the encrypted form of post(u, i[, p]) as it travels from
// the user-side library through the proxy layers (Fig. 3). EncUser starts
// as enc(u, pkUA) and is rewritten by the UA layer to det_enc(u, kUA);
// EncItem starts as enc(i, pkIA) and is rewritten by the IA layer to
// det_enc(i, kIA).
type PostRequest struct {
	EncUser string `json:"enc_user"`
	EncItem string `json:"enc_item"`
	// Payload is the optional cleartext feedback payload p (e.g. a
	// rating) forwarded unmodified, as required by the recommendation
	// algorithm.
	Payload string `json:"payload,omitempty"`
	// Event optionally names the indicator type for Correlated
	// Cross-Occurrence (e.g. "view", "like"); empty means the primary
	// indicator. Like the payload, the indicator *type* is forwarded in
	// the clear — it describes the application's schema, not the user.
	Event string `json:"event,omitempty"`
	// Idem is the idempotency key under which the LRS deduplicates this
	// feedback event when a proxy hop retries it. It is minted by the UA
	// enclave — never by the client — because a client-chosen key would
	// appear both on the edge link and in the cleartext LRS request,
	// handing a network observer a correlator that bypasses shuffling.
	// Any client-supplied value is overwritten.
	Idem string `json:"idem,omitempty"`
}

// GetRequest is the encrypted form of get(u) (Fig. 4). EncTempKey carries
// enc(k_u, pkIA), the per-request temporary key that the IA layer uses to
// hide the recommendation list from the UA layer; the IA strips it before
// contacting the LRS.
type GetRequest struct {
	EncUser    string `json:"enc_user"`
	EncTempKey string `json:"enc_temp_key,omitempty"`
}

// GetResponse carries enc({i1..in}, k_u): the fixed-size recommendation
// list encrypted under the temporary key, opaque to the UA layer.
type GetResponse struct {
	EncItems string `json:"enc_items"`
}

// LRSPost is the pseudonymized feedback insertion the LRS finally receives:
// post(det_enc(u, kUA), det_enc(i, kIA)).
type LRSPost struct {
	User    string `json:"user"`
	Item    string `json:"item"`
	Payload string `json:"payload,omitempty"`
	// Event is the indicator type (empty = primary), see
	// PostRequest.Event.
	Event string `json:"event,omitempty"`
	// Idem is the enclave-minted idempotency key copied through from
	// PostRequest.Idem; the LRS drops a repeated key instead of
	// double-counting the event when a proxy hop retried the insertion.
	Idem string `json:"idem,omitempty"`
}

// LRSGet is the pseudonymized query the LRS receives:
// get(det_enc(u, kUA)).
type LRSGet struct {
	User string `json:"user"`
	// N is the number of recommendations requested, capped at
	// MaxRecommendations.
	N int `json:"n,omitempty"`
}

// LRSGetResponse is the LRS reply: pseudonymized item identifiers.
type LRSGetResponse struct {
	Items []string `json:"items"`
}

// OK is the generic success body for post insertions; the REST API's
// meaningful signal is the HTTP status code (§4.2.1).
type OK struct {
	Status string `json:"status"`
}

// BatchEntry is one opaque message inside a batch frame. IDs are
// positions in the epoch's permuted release order (0..n-1) — sequential
// integers minted after the shuffle, so they carry no information about
// arrival order or the client behind a slot. The request direction sets
// Kind; the response direction echoes the request's ID and sets Status.
// Body is opaque to every hop that only forwards it.
type BatchEntry struct {
	ID     int
	Kind   string
	Status int
	Body   []byte
}

// BatchKindPath maps an entry kind to the per-message path it stands for,
// reporting false for unknown kinds.
func BatchKindPath(kind string) (string, bool) {
	switch kind {
	case BatchKindPost:
		return EventsPath, true
	case BatchKindGet:
		return QueriesPath, true
	}
	return "", false
}

// Encode64 renders ciphertext bytes for a JSON field (§5: "the encrypted
// content is handled and stored in the base64 format").
func Encode64(b []byte) string { return base64.StdEncoding.EncodeToString(b) }

// Decode64 parses a base64 ciphertext field.
func Decode64(s string) ([]byte, error) {
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("message: decode base64 field: %w", err)
	}
	return b, nil
}

// Marshal renders a wire message as JSON.
func Marshal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("message: marshal: %w", err)
	}
	return b, nil
}

// Unmarshal parses a wire message.
func Unmarshal(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("message: unmarshal: %w", err)
	}
	return nil
}

// pseudo-item blocks mark padding entries in a fixed-size item list. The
// 0xFFFF length header can never be produced by ppcrypto.PadID, so padding
// is unambiguous. The user-side library discards them (§4.3: "The
// pseudo-items used for padding are automatically discarded").
func isPseudoItemBlock(b []byte) bool {
	return len(b) == ppcrypto.IDBlockSize && b[0] == 0xFF && b[1] == 0xFF
}

// PadItemList appends pseudo-item blocks to a packed list of whole
// ppcrypto.IDBlockSize blocks until it holds MaxRecommendations of them.
func PadItemList(list []byte) []byte {
	var pseudo [ppcrypto.IDBlockSize]byte
	pseudo[0], pseudo[1] = 0xFF, 0xFF
	for len(list) < MaxRecommendations*ppcrypto.IDBlockSize {
		list = append(list, pseudo[:]...)
	}
	return list
}

// EncodeItemList packs up to MaxRecommendations item identifiers into a
// constant-size byte string: exactly MaxRecommendations blocks of
// ppcrypto.IDBlockSize bytes, real items first, pseudo-items after. The
// constant plaintext size means the ciphertext returned to the client has
// constant size regardless of how many recommendations the LRS produced.
func EncodeItemList(items []string) ([]byte, error) {
	if len(items) > MaxRecommendations {
		return nil, fmt.Errorf("%w: %d items", ErrTooManyItems, len(items))
	}
	out := make([]byte, 0, MaxRecommendations*ppcrypto.IDBlockSize)
	for _, it := range items {
		block, err := ppcrypto.PadID(it)
		if err != nil {
			return nil, fmt.Errorf("encode item %q: %w", it, err)
		}
		out = append(out, block...)
	}
	return PadItemList(out), nil
}

// DecodeItemList unpacks a fixed-size item list, dropping pseudo-items.
func DecodeItemList(data []byte) ([]string, error) {
	if len(data) != MaxRecommendations*ppcrypto.IDBlockSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrMalformedList, len(data))
	}
	items := make([]string, 0, MaxRecommendations)
	for i := 0; i < MaxRecommendations; i++ {
		block := data[i*ppcrypto.IDBlockSize : (i+1)*ppcrypto.IDBlockSize]
		if isPseudoItemBlock(block) {
			continue
		}
		id, err := ppcrypto.UnpadID(block)
		if err != nil {
			return nil, fmt.Errorf("decode item %d: %w", i, err)
		}
		items = append(items, id)
	}
	return items, nil
}
