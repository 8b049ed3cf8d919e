// Package rotation implements the breach response of the PProx paper
// (§2.3, footnote 1): once the breach detector reports that an enclave's
// secrets leaked, "the appropriate response must take into account the
// fact that secrets provisioned to the corrupted enclave are now in the
// hands of the adversary. Available options include dropping the database
// content and re-starting the system with new secrets, [or] downloading
// the LRS state for local re-encryption before re-uploading it and
// provisioning fresh enclaves and the user-side library with new secrets."
//
// This package implements the re-encryption option as an offline
// procedure on a drained deployment: the RaaS client application reads
// the old LRS's events in log order, maps the leaked layer's pseudonyms
// from the old permanent key to a fresh one (a bijection, so user
// profiles and model continuity are preserved), and replays every event
// into a fresh, empty LRS through its plain REST API. Fresh enclaves are
// then provisioned with the fresh keys. After rotation the adversary's
// loot decrypts nothing the fresh LRS holds.
package rotation

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"

	"pprox/internal/enclave"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
)

// ErrUnknownLayer reports a rotation request for a layer this package does
// not know.
var ErrUnknownLayer = errors.New("rotation: unknown layer")

// Layer identifies which proxy layer's keys rotate.
type Layer int

// Rotatable layers.
const (
	LayerUA Layer = iota + 1
	LayerIA
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerUA:
		return "UA"
	case LayerIA:
		return "IA"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Result summarizes one completed rotation.
type Result struct {
	Layer Layer
	// UA and IA are the layers' replacement key material; the caller
	// provisions fresh enclaves of both layers and redistributes the
	// public bundle. The rotated layer's keys are all fresh. The other
	// layer keeps its keys, but both share a fresh link key: the leaked
	// enclave held the old one.
	UA, IA *proxy.LayerKeys
	// Replayed counts the events stored in the fresh LRS.
	Replayed int
}

// RotateKeys rotates the given layer's keys and replays the old LRS's
// events into a fresh one. events visits the old LRS's stored events in
// log order (Engine.ForEachEvent has this shape); post stores one event in
// the fresh, empty LRS (PostTo posts it to the LRS's REST API).
//
// Each event keeps its payload, type and idempotency key; only the
// rotated layer's pseudonym changes, old → fresh. A replay in log order
// keeps every user's event order, which is all the CCO model depends on,
// so the fresh LRS serves the same model under the fresh pseudonyms.
//
// Every asymmetric key the layer held is replaced — the adversary has the
// box key as surely as the RSA one — and the fresh material is of the old
// one's kind, so a rotation never changes which suite a deployment runs.
//
// RotateKeys fails closed: on the first pseudonym that does not decrypt
// under the old key, or the first post the fresh LRS refuses, it returns
// the error, and the old keys and the old LRS stay in force. Nothing is
// retried, so an event without an idempotency key is never stored twice;
// the fresh LRS holds a partial replay and is discarded, and a second run
// goes into another fresh, empty LRS.
func RotateKeys(layer Layer, ua, ia *proxy.LayerKeys, events func(func(store.Document)), post func(message.LRSPost) error) (*Result, error) {
	// Copies: the caller's material stays as it was, in force until the
	// caller installs the result.
	uaCopy, iaCopy := *ua, *ia
	res := &Result{Layer: layer, UA: &uaCopy, IA: &iaCopy}
	var field string
	var old *proxy.LayerKeys
	switch layer {
	case LayerUA:
		field, old = "user", ua
	case LayerIA:
		field, old = "item", ia
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownLayer, int(layer))
	}
	newKeys := proxy.NewLayerKeys
	if old.Box == nil {
		newKeys = proxy.NewRSAOnlyLayerKeys
	}
	fresh, err := newKeys()
	if err != nil {
		return nil, fmt.Errorf("rotation: fresh keys: %w", err)
	}
	if layer == LayerUA {
		res.UA = fresh
	} else {
		res.IA = fresh
	}
	if err := proxy.PairLinkKey(res.UA, res.IA); err != nil {
		return nil, fmt.Errorf("rotation: %w", err)
	}

	// A user's pseudonym recurs in every event of its history, an item's
	// in every event about it: each is mapped once.
	mapped := make(map[string]string)
	events(func(d store.Document) {
		if err != nil {
			return
		}
		// The engine stores a post's fields under these names
		// (Engine.InsertTypedEventIdem).
		ev := message.LRSPost{
			User:    d.Fields["user"],
			Item:    d.Fields["item"],
			Payload: d.Fields["payload"],
			Event:   d.Fields["type"],
			Idem:    d.Fields["idem"],
		}
		pseudo := &ev.User
		if layer == LayerIA {
			pseudo = &ev.Item
		}
		to, ok := mapped[*pseudo]
		if !ok {
			if to, err = reencryptPseudonym(old.Permanent, fresh.Permanent, *pseudo); err != nil {
				err = fmt.Errorf("rotation: re-pseudonymize the %s of event %d: %w", field, res.Replayed+1, err)
				return
			}
			mapped[*pseudo] = to
		}
		*pseudo = to
		if err = post(ev); err != nil {
			err = fmt.Errorf("rotation: replay event %d: %w", res.Replayed+1, err)
			return
		}
		res.Replayed++
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// reencryptPseudonym maps det_enc(x, oldKey) to det_enc(x, freshKey)
// without ever exposing x outside this migration step.
func reencryptPseudonym(oldKey, freshKey []byte, pseudonym string) (string, error) {
	raw, err := message.Decode64(pseudonym)
	if err != nil {
		return "", fmt.Errorf("decode pseudonym: %w", err)
	}
	id, err := ppcrypto.Depseudonymize(oldKey, raw)
	if err != nil {
		return "", fmt.Errorf("old-key decryption: %w", err)
	}
	fresh, err := ppcrypto.Pseudonymize(freshKey, id)
	if err != nil {
		return "", err
	}
	return message.Encode64(fresh), nil
}

// PostTo returns the replay sink of RotateKeys for the LRS at lrsURL: each
// event is one plain POST /events, and any answer but 2xx fails it.
func PostTo(c *http.Client, lrsURL string) func(message.LRSPost) error {
	return func(ev message.LRSPost) error {
		body, err := message.Marshal(ev)
		if err != nil {
			return err
		}
		resp, err := c.Post(lrsURL+message.EventsPath, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("LRS answered %s", resp.Status)
		}
		return nil
	}
}

// Responder wires the enclave breach detector to the breach response:
// when a breach is detected on an enclave whose identity matches one of
// the layers, it opens the auditor's violation window and hands the layer
// to the rotate function. The window closes only when that function
// succeeds.
type Responder struct {
	// rotate runs the offline procedure for one layer: RotateKeys into a
	// fresh LRS, then fresh enclaves provisioned with the fresh keys.
	rotate func(Layer) error
	// OnError receives rotation failures.
	OnError func(error)
	// Audit, when set, receives the breach and the rotation outcome so
	// the privacy-SLO auditor can hold the deployment in the violated
	// state for exactly the window where stolen keys were in service.
	Audit Auditor
}

// Auditor is the subset of the privacy auditor the responder feeds:
// a breach opens a violation window, a completed rotation closes it.
type Auditor interface {
	ObserveBreach(layer string)
	ObserveRotation(layer string)
}

// NewResponder builds the breach-response hook around the caller's
// rotation procedure.
func NewResponder(rotate func(Layer) error, onError func(error)) *Responder {
	return &Responder{rotate: rotate, OnError: onError}
}

// Countermeasure is the enclave.BreachDetector callback.
func (r *Responder) Countermeasure(e *enclave.Enclave) {
	var layer Layer
	switch e.Identity().Name {
	case proxy.UAIdentity.Name:
		layer = LayerUA
	case proxy.IAIdentity.Name:
		layer = LayerIA
	default:
		if r.OnError != nil {
			r.OnError(fmt.Errorf("%w: enclave %q", ErrUnknownLayer, e.Identity().Name))
		}
		return
	}
	if r.Audit != nil {
		r.Audit.ObserveBreach(layer.String())
	}
	if err := r.rotate(layer); err != nil {
		if r.OnError != nil {
			r.OnError(fmt.Errorf("rotation of the %v layer: %w", layer, err))
		}
		return
	}
	if r.Audit != nil {
		r.Audit.ObserveRotation(layer.String())
	}
}
