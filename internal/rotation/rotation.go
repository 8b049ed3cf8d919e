// Package rotation implements the breach response of the PProx paper
// (§2.3, footnote 1): once the breach detector reports that an enclave's
// secrets leaked, "the appropriate response must take into account the
// fact that secrets provisioned to the corrupted enclave are now in the
// hands of the adversary. Available options include dropping the database
// content and re-starting the system with new secrets, [or] downloading
// the LRS state for local re-encryption before re-uploading it and
// provisioning fresh enclaves and the user-side library with new secrets."
//
// This package implements the re-encryption option: the RaaS client
// application generates fresh layer keys, migrates every pseudonym stored
// by the LRS from the leaked permanent key to the fresh one (a bijection,
// so user profiles and model continuity are preserved), and provisions
// fresh enclaves. After rotation the adversary's loot decrypts nothing.
package rotation

import (
	"errors"
	"fmt"

	"pprox/internal/enclave"
	"pprox/internal/lrs/engine"
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
	// Fresh is the layer's replacement key material; the caller
	// provisions fresh enclaves and redistributes the public bundle.
	Fresh *proxy.LayerKeys
	// Migrated counts re-encrypted pseudonyms.
	Migrated int
}

// RotateKeys generates fresh keys for the given layer and re-encrypts the
// engine's stored pseudonyms from old to fresh. The old keys — which the
// adversary may hold — become useless against the migrated database.
//
// The migration runs as the engine's background shard-at-a-time
// re-pseudonymization job (engine.Repseudonymize): the LRS keeps serving
// while shards are staged, and the job finishes with a retrain so the
// served model speaks the fresh pseudonym space. RotateKeys blocks until
// every shard has settled — callers that clear breach state (the
// auditor) therefore only do so once the whole database is re-keyed.
//
// Every asymmetric key the layer held is replaced — the adversary has the
// box key as surely as the RSA one — and the fresh material is of the old
// one's kind, so a rotation never changes which suite a deployment runs.
func RotateKeys(layer Layer, old *proxy.LayerKeys, eng *engine.Engine) (*Result, error) {
	newKeys := proxy.NewLayerKeys
	if old.Box == nil {
		newKeys = proxy.NewRSAOnlyLayerKeys
	}
	fresh, err := newKeys()
	if err != nil {
		return nil, fmt.Errorf("rotation: fresh keys: %w", err)
	}

	var field string
	switch layer {
	case LayerUA:
		field = "user"
	case LayerIA:
		field = "item"
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownLayer, int(layer))
	}

	job, err := eng.Repseudonymize(field, func(pseudonym string) (string, error) {
		return reencryptPseudonym(old.Permanent, fresh.Permanent, pseudonym)
	})
	if err != nil {
		return nil, fmt.Errorf("rotation: %w", err)
	}
	if err := job.Wait(); err != nil {
		return nil, fmt.Errorf("rotation: %w", err)
	}
	return &Result{Layer: layer, Fresh: fresh, Migrated: int(job.Migrated())}, nil
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

// Responder wires the enclave breach detector to automatic rotation: when
// a breach is detected on an enclave whose identity matches one of the
// registered layers, it rotates that layer's keys and reports the result.
type Responder struct {
	eng    *engine.Engine
	uaKeys *proxy.LayerKeys
	iaKeys *proxy.LayerKeys
	// OnRotated receives each completed rotation (e.g. to provision
	// fresh enclaves and push the new public bundle).
	OnRotated func(*Result)
	// OnError receives rotation failures.
	OnError func(error)
	// Audit, when set, receives the breach and the rotation outcome so
	// the privacy-SLO auditor can hold the deployment in the violated
	// state for exactly the window where stolen keys were in service.
	Audit Auditor

	caches []CacheFlusher
}

// CacheFlusher is anything holding derived per-pseudonym state that a key
// rotation invalidates — the IA recommendation caches. Flush drops every
// entry and reports how many went.
type CacheFlusher interface {
	Flush() int
}

// AddCache registers a cache the countermeasure flushes before rotating.
// Call during deployment wiring, before the breach detector can fire.
func (r *Responder) AddCache(c CacheFlusher) {
	r.caches = append(r.caches, c)
}

// Auditor is the subset of the privacy auditor the responder feeds:
// a breach opens a violation window, a completed rotation closes it.
type Auditor interface {
	ObserveBreach(layer string)
	ObserveRotation(layer string)
}

// NewResponder builds the breach-response hook.
func NewResponder(eng *engine.Engine, uaKeys, iaKeys *proxy.LayerKeys, onRotated func(*Result), onError func(error)) *Responder {
	return &Responder{eng: eng, uaKeys: uaKeys, iaKeys: iaKeys, OnRotated: onRotated, OnError: onError}
}

// Countermeasure is the enclave.BreachDetector callback.
func (r *Responder) Countermeasure(e *enclave.Enclave) {
	var layer Layer
	var keys *proxy.LayerKeys
	switch e.Identity().Name {
	case proxy.UAIdentity.Name:
		layer, keys = LayerUA, r.uaKeys
	case proxy.IAIdentity.Name:
		layer, keys = LayerIA, r.iaKeys
	default:
		if r.OnError != nil {
			r.OnError(fmt.Errorf("%w: enclave %q", ErrUnknownLayer, e.Identity().Name))
		}
		return
	}
	if r.Audit != nil {
		r.Audit.ObserveBreach(layer.String())
	}
	// Flush every recommendation cache before anything else: whichever
	// layer leaked, cached lists derive from the old key world — a UA
	// rotation re-keys the user pseudonyms entries are filed under, an
	// IA rotation re-keys the item pseudonyms they contain — and a
	// compromised IA enclave may itself have been serving from cache.
	for _, c := range r.caches {
		c.Flush()
	}
	res, err := RotateKeys(layer, keys, r.eng)
	if err != nil {
		if r.OnError != nil {
			r.OnError(err)
		}
		return
	}
	// Track the new keys so a second breach rotates from the right
	// baseline.
	switch layer {
	case LayerUA:
		r.uaKeys = res.Fresh
	case LayerIA:
		r.iaKeys = res.Fresh
	}
	if r.Audit != nil {
		r.Audit.ObserveRotation(layer.String())
	}
	if r.OnRotated != nil {
		r.OnRotated(res)
	}
}
