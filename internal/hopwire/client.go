package hopwire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/message"
	"pprox/internal/transport"
)

// Client carries batch frames to one peer over pooled persistent
// connections. It is safe for concurrent use; each in-flight exchange
// owns one connection. A nil *Client reads as zero Stats and closes as a
// no-op, so the hop of a layer that holds none (the IA, which reaches the
// LRS over HTTP) can be read and closed like any other.
type Client struct {
	dialer transport.Dialer
	addr   string

	// Tunables, fixed at construction.
	dialTimeout     time.Duration
	exchangeTimeout time.Duration
	idleTTL         time.Duration
	maxIdle         int

	mu     sync.Mutex
	idle   []*poolConn
	closed bool

	dials     atomic.Uint64
	reuses    atomic.Uint64
	exchanges atomic.Uint64
}

// poolConn is one pooled connection with its read buffer; the buffer must
// travel with the conn or pooled reuse would lose buffered bytes.
type poolConn struct {
	net.Conn
	br       *bufio.Reader
	lastUsed time.Time
}

// NewClient builds a client for the peer behind next (a base URL like
// "http://ia" or a bare dial address). Connections go through d — the
// memnet network, a cluster balancer, or a *net.Dialer — so every
// deployment flavour keeps its addressing.
func NewClient(d transport.Dialer, next string) (*Client, error) {
	if d == nil {
		return nil, fmt.Errorf("hopwire: nil dialer")
	}
	addr := next
	if strings.Contains(next, "://") {
		u, err := url.Parse(next)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("hopwire: bad peer URL %q", next)
		}
		addr = u.Host
	}
	return &Client{
		dialer:          d,
		addr:            addr,
		dialTimeout:     defaultDialTimeout,
		exchangeTimeout: defaultExchangeTimeout,
		idleTTL:         defaultIdleTTL,
		maxIdle:         defaultMaxIdle,
	}, nil
}

// Stats is the client's counter snapshot for metrics export.
type Stats struct {
	// Dials is connections established.
	Dials uint64
	// Reuses is exchanges that rode a pooled connection.
	Reuses uint64
	// Exchanges is completed frame round trips.
	Exchanges uint64
	// Fallbacks is always 0: nothing falls back to HTTP. Only the
	// benchmark reads it; it goes with the next change to the benchmark.
	Fallbacks uint64
}

// Stats returns the client's counters (zero for a nil client).
func (c *Client) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Dials:     c.dials.Load(),
		Reuses:    c.reuses.Load(),
		Exchanges: c.exchanges.Load(),
	}
}

// Close drops every pooled connection and refuses further exchanges. It
// is a no-op on a nil client.
func (c *Client) Close() {
	if c == nil {
		return
	}
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, pc := range idle {
		pc.Close()
	}
}

// RoundTrip sends one batch frame and returns the answer with
// HTTP-equivalent semantics, (status, body): path must be
// message.BatchPath and body the marshalled frame, and the response body
// is the raw response frame — the same bytes an HTTP /batch exchange
// carries. An error frame comes back as its status and text. Every error
// is a transport fault for the caller's breaker and retry ladder; an
// answer that is not a frame (an HTTP-only server's error line) yields
// one wrapping message.ErrNotFrame.
func (c *Client) RoundTrip(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if path != message.BatchPath {
		return 0, nil, fmt.Errorf("hopwire: only %s rides frames, not %s", message.BatchPath, path)
	}
	h, err := message.ParseFrameHeader(body)
	if err != nil {
		return 0, nil, err
	}

	// A pooled connection can go stale between the health check and the
	// write (the peer closed it first). Like an HTTP transport retrying
	// an idempotent request on a reused conn, one retry on a fresh dial
	// is safe: a failed exchange that never yielded response bytes was
	// never processed-and-acknowledged.
	for attempt := 0; attempt < 2; attempt++ {
		pc, reused, err := c.getConn(ctx, attempt > 0)
		if err != nil {
			return 0, nil, err
		}
		status, resp, gotBytes, err := c.exchange(ctx, pc, body, h.Epoch)
		if err == nil {
			c.exchanges.Add(1)
			return status, resp, nil
		}
		if !reused || gotBytes || ctx.Err() != nil {
			return 0, nil, err
		}
	}
	// Unreachable: attempt 1 uses a fresh dial, so reused is false and
	// the loop returns from inside.
	return 0, nil, fmt.Errorf("hopwire: exchange with %s failed", c.addr)
}

// getConn returns a healthy pooled connection or dials a new one. fresh
// bypasses the pool (the retry path must not draw a second stale conn).
func (c *Client) getConn(ctx context.Context, fresh bool) (pc *poolConn, reused bool, err error) {
	if !fresh {
		for {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				return nil, false, ErrClosed
			}
			n := len(c.idle)
			if n == 0 {
				c.mu.Unlock()
				break
			}
			pc := c.idle[n-1]
			c.idle = c.idle[:n-1]
			c.mu.Unlock()
			if time.Since(pc.lastUsed) > c.idleTTL || !pc.healthy() {
				pc.Close()
				continue
			}
			c.reuses.Add(1)
			return pc, true, nil
		}
	}
	dctx := ctx
	if c.dialTimeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, c.dialTimeout)
		defer cancel()
	}
	conn, err := c.dialer.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, false, fmt.Errorf("hopwire: dial %s: %w", c.addr, err)
	}
	c.dials.Add(1)
	return &poolConn{Conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}, false, nil
}

// healthy screens a pooled connection before reuse: any buffered or
// readable byte means the peer wrote outside an exchange (desync) or
// closed the conn — either way it must not carry the next frame.
func (pc *poolConn) healthy() bool {
	if pc.br.Buffered() > 0 {
		return false
	}
	if err := pc.SetReadDeadline(time.Now().Add(-time.Hour)); err != nil {
		return false
	}
	_, err := pc.br.Peek(1)
	pc.SetReadDeadline(time.Time{})
	if err == nil {
		return false
	}
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// putConn returns a connection to the pool after a clean exchange.
func (c *Client) putConn(pc *poolConn) {
	pc.lastUsed = time.Now()
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.maxIdle {
		c.mu.Unlock()
		pc.Close()
		return
	}
	c.idle = append(c.idle, pc)
	c.mu.Unlock()
}

// exchange writes one batch frame and reads one response frame. gotBytes
// reports whether any response bytes arrived — the retry-safety signal.
// On success the connection returns to the pool; on any error it is
// closed (a half-finished exchange can never be reused).
func (c *Client) exchange(ctx context.Context, pc *poolConn, frame []byte, epoch uint64) (status int, resp []byte, gotBytes bool, err error) {
	defer func() {
		if err != nil {
			pc.Close()
		}
	}()

	deadline := time.Now().Add(c.exchangeTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := pc.SetDeadline(deadline); err != nil {
		return 0, nil, false, err
	}
	if _, err := pc.Write(frame); err != nil {
		return 0, nil, false, fmt.Errorf("hopwire: write to %s: %w", c.addr, err)
	}

	hdr := make([]byte, message.FrameHeaderSize)
	n, err := io.ReadFull(pc.br, hdr)
	if err != nil {
		return 0, nil, n > 0, fmt.Errorf("hopwire: read from %s: %w", c.addr, err)
	}
	h, err := message.ParseFrameHeader(hdr)
	if err != nil {
		// Typically an HTTP/1.1 error line from a server that does not
		// speak frames (ErrNotFrame), or a desynced stream.
		return 0, nil, true, fmt.Errorf("hopwire: answer from %s: %w", c.addr, err)
	}
	full := make([]byte, h.FrameSize())
	copy(full, hdr)
	if _, err := io.ReadFull(pc.br, full[message.FrameHeaderSize:]); err != nil {
		return 0, nil, true, fmt.Errorf("hopwire: read from %s: %w", c.addr, err)
	}
	if h.Epoch != epoch {
		// A response for some other exchange: the stream is desynced and
		// the connection unusable.
		return 0, nil, true, fmt.Errorf("hopwire: %s echoed epoch %d, want %d", c.addr, h.Epoch, epoch)
	}
	pc.SetDeadline(time.Time{})

	if h.Kind == message.FrameError {
		_, st, text, derr := message.DecodeErrorFrame(full)
		if derr != nil {
			return 0, nil, true, derr
		}
		c.putConn(pc)
		return st, []byte(text), true, nil
	}
	c.putConn(pc)
	return http.StatusOK, full, true, nil
}
