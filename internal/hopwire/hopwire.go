// Package hopwire is the persistent-connection binary hop transport for
// the UA→IA link (DESIGN.md §4h): each shuffle epoch travels as one
// length-prefixed batch frame (internal/message frame codec) over pooled
// connections instead of one HTTP POST per exchange. HTTP remains the
// protocol of the client edge and of the IA→LRS hop — the LRS is reached
// through its own unmodified REST contract — and every hopwire server
// also speaks HTTP on the same listener (the sniffing mux in mux.go), so
// health probes and metrics scrapes keep working on a proxy's one port.
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

// ErrClosed reports use of a closed client or server.
var ErrClosed = errors.New("hopwire: closed")

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
	// serverIdleTimeout is how long the server keeps an idle frame
	// connection before dropping it: longer than the client's idle TTL,
	// so a pooled link is retired by the client first.
	serverIdleTimeout = 60 * time.Second
	// serverIOTimeout bounds reading one frame body or writing one
	// response once an exchange has started.
	serverIOTimeout = 30 * time.Second
)
