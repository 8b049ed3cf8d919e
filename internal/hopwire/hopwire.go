// Package hopwire is the persistent-connection binary hop transport for
// the inter-proxy links (DESIGN.md §4h): UA→IA batch frames and
// per-message IA→LRS traffic travel as length-prefixed frames
// (internal/message frame codec) over pooled connections instead of one
// HTTP POST per exchange. HTTP remains the client-edge protocol, and
// every hopwire server also speaks HTTP on the same listener (the
// sniffing mux in mux.go), so health probes, metrics scrapes and direct
// REST clients of an LRS keep working — and a peer that answers frames
// with anything else, such as an unmodified HTTP-only LRS, makes the
// client latch ErrUnsupported and fall back to HTTP until a cooldown
// expires.
//
// The exchange model is strictly serial per connection: one request
// frame, one response frame, matched by the epoch id echoed in the frame
// header. Concurrency comes from pooling — each in-flight exchange owns
// one connection — which keeps the protocol free of stream multiplexing
// while preserving the constant-size slot discipline the §4.3 privacy
// argument needs on the wire.
package hopwire

import (
	"errors"
	"time"
)

// Errors reported by the transport.
var (
	// ErrUnsupported reports a peer that does not speak the frame
	// protocol (it answered with non-frame bytes, typically an HTTP
	// error). The caller should fall back to its HTTP path; the client
	// latches the verdict for a cooldown so every epoch does not re-probe.
	ErrUnsupported = errors.New("hopwire: peer does not speak the frame protocol")

	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("hopwire: closed")
)

// Tunables shared by client and server. They bound resource usage, not
// correctness: resilience policies own the real deadlines.
const (
	// defaultDialTimeout bounds one connection establishment.
	defaultDialTimeout = 10 * time.Second
	// defaultExchangeTimeout bounds one write+read exchange when the
	// caller's context carries no deadline.
	defaultExchangeTimeout = 30 * time.Second
	// defaultIdleTTL is how long a pooled connection may sit unused
	// before the pool discards it instead of reusing it.
	defaultIdleTTL = 30 * time.Second
	// defaultMaxIdle caps pooled connections per client.
	defaultMaxIdle = 64
	// defaultUnsupportedCooldown is how long the client stays on the
	// HTTP fallback after a peer proved frame-illiterate.
	defaultUnsupportedCooldown = 30 * time.Second
	// probeWriteTimeout bounds the FIRST frame write to a peer that has
	// never completed a frame exchange. A frame-illiterate HTTP server
	// stops reading as soon as its request parser chokes on the frame
	// bytes, so a large frame wedges in the socket buffer: the write
	// never finishes and never produces the non-frame response that
	// would latch ErrUnsupported. Bounding the probe write converts
	// that wedge into a fast fallback verdict.
	probeWriteTimeout = time.Second
	// serverIdleTimeout is how long the server keeps an idle frame
	// connection before dropping it (matches the HTTP transport's
	// 30-second idle conn timeout).
	serverIdleTimeout = 60 * time.Second
	// serverIOTimeout bounds reading one frame body or writing one
	// response once an exchange has started.
	serverIOTimeout = 30 * time.Second
)
