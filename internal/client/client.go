// Package client is the user-side library of PProx (§2.1, §4): the thin
// shim embedded in the application front end that intercepts REST calls to
// the recommendation service, encrypts their fields for the two proxy
// layers, and decrypts returned recommendation lists. The paper ships it
// as static JavaScript; this is the same logic as a Go library.
//
// The library holds only globally known information — the two layers'
// public keys — and the user's identifier with the application. No private
// key or model is ever provisioned client-side (§3, ease of deployment).
//
// Which keys the bundle carries decides how a field is encrypted for its
// layer: a sealed box whenever the bundle has the layer's X25519 key,
// RSA-OAEP (the paper's suite) otherwise. There is no setting: the suite
// shows on the wire as the field's length, so every client of a deployment
// must make the same choice, and the bundle is what they share.
package client

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/resilience"
)

// Errors reported by the library.
var (
	// ErrServiceStatus reports a non-200 REST response.
	ErrServiceStatus = errors.New("client: service returned error status")

	// ErrBadResponse reports a response that failed decryption or
	// decoding — the service-side contract was violated.
	ErrBadResponse = errors.New("client: malformed service response")
)

// Client issues post/get calls through the PProx proxy service. It is safe
// for concurrent use.
type Client struct {
	bundle proxy.PublicBundle
	http   *http.Client
	base   string
	// plain bypasses all encryption; it exists for the paper's m1
	// baseline configuration and for talking to an unprotected LRS.
	plain bool
	// getRetries is how many extra get attempts follow a retryable
	// failure (WithGetRetries). Posts never retry client-side.
	getRetries int
}

// WithGetRetries returns a copy of the client that retries failed get
// calls up to n extra attempts (jittered by a doubling backoff). Only gets
// retry: every attempt is freshly encrypted end to end — a new ephemeral
// key shared by the attempt's two boxes (or fresh OAEP seeds) and a
// brand-new temporary key — so a network observer cannot link a retry to
// the attempt it repeats: no two attempts share an ephemeral point.
//
// Posts deliberately never retry from the client. A safe post retry needs
// an idempotency key the LRS can deduplicate on, and a client-chosen key
// would itself link the client-side and LRS-side observations of the
// event across the shuffler, voiding the 1/S bound. Post retries happen
// on the IA→LRS hop instead, where the enclave mints the key.
func (c *Client) WithGetRetries(n int) *Client {
	cp := *c
	cp.getRetries = n
	return &cp
}

// New creates a client of the proxy service at base (the UA layer's
// balancer), encrypting with the application's public bundle.
func New(bundle proxy.PublicBundle, httpClient *http.Client, base string) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{bundle: bundle, http: httpClient, base: base}
}

// NewPlain creates a client that sends cleartext identifiers — the
// unprotected baseline (configurations m1, b1–b4). It can point at a proxy
// deployment in pass-through mode or directly at an LRS.
func NewPlain(httpClient *http.Client, base string) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{http: httpClient, base: base, plain: true}
}

// Post sends primary-indicator feedback: user accessed item, with an
// optional payload (post(u, i[, p]) in the paper). The user identifier is
// encrypted for the UA layer only; the item identifier for the IA layer
// only (Fig. 3).
func (c *Client) Post(ctx context.Context, user, item, payload string) error {
	return c.PostEvent(ctx, user, item, payload, "")
}

// PostEvent sends feedback with an explicit indicator type for Correlated
// Cross-Occurrence (e.g. "view", "like"); the empty type is the primary
// indicator. Only the indicator *name* travels in the clear.
func (c *Client) PostEvent(ctx context.Context, user, item, payload, eventType string) error {
	var body []byte
	var err error
	if c.plain {
		body, err = message.Marshal(message.LRSPost{User: user, Item: item, Payload: payload, Event: eventType})
	} else {
		var userBlock, itemBlock, encUser, encItem []byte
		if userBlock, err = ppcrypto.PadID(user); err != nil {
			return err
		}
		if itemBlock, err = ppcrypto.PadID(item); err != nil {
			return err
		}
		encUser, encItem, err = ppcrypto.SealPair(
			c.bundle.UAField(ppcrypto.RoleUAUser, userBlock), c.bundle.IAField(ppcrypto.RoleIAItem, itemBlock))
		if err != nil {
			return err
		}
		body, err = message.Marshal(message.PostRequest{
			EncUser: message.Encode64(encUser),
			EncItem: message.Encode64(encItem),
			Payload: payload,
			Event:   eventType,
		})
	}
	if err != nil {
		return err
	}
	status, _, err := c.do(ctx, message.EventsPath, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%w: %d", ErrServiceStatus, status)
	}
	return nil
}

// Get fetches recommendations for the user (get(u) in the paper). A fresh
// temporary key k_u is generated per call and encrypted for the IA layer,
// which uses it to hide the returned list from the UA layer (Fig. 4);
// padding pseudo-items are discarded before returning.
//
// With WithGetRetries, retryable failures (transport errors, 5xx/429) are
// retried with a fresh encryption of the whole request each time.
func (c *Client) Get(ctx context.Context, user string) ([]string, error) {
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		items, status, err := c.getOnce(ctx, user)
		if err == nil || attempt >= c.getRetries || !retryableGet(status, err) || ctx.Err() != nil {
			return items, err
		}
		if serr := resilience.Sleep(ctx, backoff); serr != nil {
			return nil, err
		}
		backoff *= 2
	}
}

// retryableGet decides whether a failed get is worth repeating: transport
// errors (status 0) and overload/transient statuses are; a response the
// service produced but the client cannot decode is a contract violation a
// retry will not fix.
func retryableGet(status int, err error) bool {
	if errors.Is(err, ErrBadResponse) {
		return false
	}
	return status == 0 || resilience.RetryableStatus(status)
}

func (c *Client) getOnce(ctx context.Context, user string) ([]string, int, error) {
	if c.plain {
		return c.getPlain(ctx, user)
	}

	userBlock, err := ppcrypto.PadID(user)
	if err != nil {
		return nil, 0, err
	}
	ku, err := ppcrypto.NewSymmetricKey()
	if err != nil {
		return nil, 0, err
	}
	encUser, encKu, err := ppcrypto.SealPair(
		c.bundle.UAField(ppcrypto.RoleUAUser, userBlock), c.bundle.IAField(ppcrypto.RoleIATempKey, ku))
	if err != nil {
		return nil, 0, err
	}
	body, err := message.Marshal(message.GetRequest{
		EncUser:    message.Encode64(encUser),
		EncTempKey: message.Encode64(encKu),
	})
	if err != nil {
		return nil, 0, err
	}

	status, respBody, err := c.do(ctx, message.QueriesPath, body)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, status, fmt.Errorf("%w: %d", ErrServiceStatus, status)
	}

	ct, err := encItems(respBody)
	if err != nil {
		return nil, status, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	packed, err := ppcrypto.SymDecrypt(ku, ct)
	if err != nil {
		return nil, status, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	items, err := message.DecodeItemList(packed)
	if err != nil {
		return nil, status, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	return items, status, nil
}

// encItems reads the one field of a GetResponse, as the IA enclave renders
// it: `{"enc_items":"<base64>"}` (appendGetResponse, byte for byte what
// message.Marshal writes).
func encItems(body []byte) ([]byte, error) {
	const head, tail = `{"enc_items":"`, `"}`
	if len(body) < len(head)+len(tail) || !bytes.HasPrefix(body, []byte(head)) || !bytes.HasSuffix(body, []byte(tail)) {
		return nil, errors.New("not a get response")
	}
	return base64.StdEncoding.AppendDecode(nil, body[len(head):len(body)-len(tail)])
}

func (c *Client) getPlain(ctx context.Context, user string) ([]string, int, error) {
	body, err := message.Marshal(message.LRSGet{User: user, N: message.MaxRecommendations})
	if err != nil {
		return nil, 0, err
	}
	status, respBody, err := c.do(ctx, message.QueriesPath, body)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, status, fmt.Errorf("%w: %d", ErrServiceStatus, status)
	}
	var resp message.LRSGetResponse
	if err := message.Unmarshal(respBody, &resp); err != nil {
		return nil, status, fmt.Errorf("%w: %v", ErrBadResponse, err)
	}
	return resp.Items, status, nil
}

func (c *Client) do(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("client: %s: %w", path, err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, fmt.Errorf("client: read response: %w", err)
	}
	return resp.StatusCode, respBody, nil
}
