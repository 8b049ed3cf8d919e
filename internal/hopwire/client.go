package hopwire

import (
	"bufio"
	"context"
	"errors"
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

// Client carries frames to one peer over pooled persistent connections.
// It is safe for concurrent use; each in-flight exchange owns one
// connection.
type Client struct {
	dialer transport.Dialer
	addr   string

	// Tunables, fixed at construction.
	dialTimeout     time.Duration
	exchangeTimeout time.Duration
	idleTTL         time.Duration
	maxIdle         int
	cooldown        time.Duration
	probeTimeout    time.Duration

	// seq mints exchange ids for single frames (batch frames carry the
	// epoch id their builder minted).
	seq atomic.Uint64

	// verified latches once any frame exchange has completed against the
	// peer. Until then the peer may be a frame-illiterate HTTP server
	// whose request parser stops reading mid-frame — an unbounded write
	// of a large frame would then wedge until the exchange deadline, so
	// unverified writes are probe-bounded (see exchange).
	verified atomic.Bool

	mu               sync.Mutex
	idle             []*poolConn
	closed           bool
	unsupportedUntil time.Time

	dials     atomic.Uint64
	reuses    atomic.Uint64
	exchanges atomic.Uint64
	fallbacks atomic.Uint64
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
		cooldown:        defaultUnsupportedCooldown,
		probeTimeout:    probeWriteTimeout,
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
	// Fallbacks is exchanges refused with ErrUnsupported (peer not
	// speaking frames, or cooldown latch still warm).
	Fallbacks uint64
}

// Stats returns the client's counters.
func (c *Client) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Dials:     c.dials.Load(),
		Reuses:    c.reuses.Load(),
		Exchanges: c.exchanges.Load(),
		Fallbacks: c.fallbacks.Load(),
	}
}

// Close drops every pooled connection and refuses further exchanges.
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

// RoundTrip performs one exchange with HTTP-equivalent semantics: the
// request that would have been POSTed to path travels as a frame, and the
// result comes back as (status, body). For the batch path the body IS the
// marshalled frame and the response body is the raw response frame, the
// same bytes an HTTP /batch exchange carries. ErrUnsupported means the peer does not speak frames and the
// caller should use its HTTP path; any other error is a transport fault
// for the caller's breaker and retry ladder.
func (c *Client) RoundTrip(ctx context.Context, path string, body []byte) (int, []byte, error) {
	if c == nil {
		return 0, nil, ErrUnsupported
	}
	var frame []byte
	var epoch uint64
	var reqKind byte
	switch path {
	case message.BatchPath:
		if !message.IsFrame(body) {
			// Only frames ride hopwire; anything else is the HTTP
			// path's to send and the IA's to refuse.
			return 0, nil, ErrUnsupported
		}
		h, err := message.ParseFrameHeader(body)
		if err != nil {
			return 0, nil, err
		}
		epoch = h.Epoch
		reqKind = message.FrameBatch
		frame = body
	case message.EventsPath, message.QueriesPath:
		kind, _ := message.PathBatchKind(path)
		epoch = c.seq.Add(1)
		reqKind = message.FrameSingle
		var err error
		frame, err = message.AppendBatchFrame(nil, message.FrameSingle, epoch,
			[]message.BatchEntry{{ID: 0, Kind: kind, Body: body}})
		if err != nil {
			return 0, nil, err
		}
	case message.TelemetryPath:
		// One snapshot per slot; the frame kind itself is the route, so
		// the entry carries no per-message kind tag.
		epoch = c.seq.Add(1)
		reqKind = message.FrameTelemetry
		var err error
		frame, err = message.AppendBatchFrame(nil, message.FrameTelemetry, epoch,
			[]message.BatchEntry{{ID: 0, Body: body}})
		if err != nil {
			return 0, nil, err
		}
	default:
		// Health probes and any future route stay on HTTP.
		return 0, nil, ErrUnsupported
	}

	if c.inCooldown() {
		c.fallbacks.Add(1)
		return 0, nil, ErrUnsupported
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
		status, resp, gotBytes, err := c.exchange(ctx, pc, frame, epoch, reqKind)
		if err == nil {
			c.exchanges.Add(1)
			return status, resp, nil
		}
		if err == ErrUnsupported {
			c.markUnsupported()
			c.fallbacks.Add(1)
			return 0, nil, ErrUnsupported
		}
		if !reused || gotBytes || ctx.Err() != nil {
			return 0, nil, err
		}
	}
	// Unreachable: attempt 1 uses a fresh dial, so reused is false and
	// the loop returns from inside.
	return 0, nil, fmt.Errorf("hopwire: exchange with %s failed", c.addr)
}

// inCooldown reports whether the unsupported latch is still warm.
func (c *Client) inCooldown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Now().Before(c.unsupportedUntil)
}

func (c *Client) markUnsupported() {
	c.mu.Lock()
	c.unsupportedUntil = time.Now().Add(c.cooldown)
	c.mu.Unlock()
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

// exchange writes one frame and reads one response frame. gotBytes
// reports whether any response bytes arrived — the retry-safety signal.
// On success the connection returns to the pool; on any error it is
// closed (a half-finished exchange can never be reused). reqKind is the
// request frame's kind: the response must answer in the same kind (or an
// error frame), anything else is a desynced stream.
func (c *Client) exchange(ctx context.Context, pc *poolConn, frame []byte, epoch uint64, reqKind byte) (status int, resp []byte, gotBytes bool, err error) {
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

	verified := c.verified.Load()
	if !verified {
		// Probe-bound the write until the peer has proven it speaks
		// frames: a frame-illiterate server stops reading mid-frame, so
		// an unbounded write of a large frame would wedge for the whole
		// exchange deadline without ever producing the non-frame
		// response that latches the fallback.
		probe := time.Now().Add(c.probeTimeout)
		if probe.Before(deadline) {
			pc.SetWriteDeadline(probe)
		}
	}
	if _, err := pc.Write(frame); err != nil {
		var ne net.Error
		if !verified && errors.As(err, &ne) && ne.Timeout() {
			// The peer stopped reading our frame: it does not speak the
			// protocol. gotBytes=true so RoundTrip does not retry the
			// probe on a fresh dial.
			return 0, nil, true, ErrUnsupported
		}
		return 0, nil, false, fmt.Errorf("hopwire: write to %s: %w", c.addr, err)
	}
	if !verified {
		pc.SetWriteDeadline(deadline)
	}

	hdr := make([]byte, message.FrameHeaderSize)
	n, err := io.ReadFull(pc.br, hdr)
	if err != nil {
		return 0, nil, n > 0, fmt.Errorf("hopwire: read from %s: %w", c.addr, err)
	}
	if !message.IsFrame(hdr) {
		// The peer answered with something else — typically an HTTP/1.1
		// error line from a frame-illiterate server. ErrUnsupported; the
		// caller falls back to HTTP (and RoundTrip latches the verdict).
		return 0, nil, true, ErrUnsupported
	}
	// A frame came back: the peer speaks the protocol, so later writes
	// need no probe bound.
	c.verified.Store(true)
	h, err := message.ParseFrameHeader(hdr)
	if err != nil {
		return 0, nil, true, err
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

	switch h.Kind {
	case message.FrameError:
		_, st, text, derr := message.DecodeErrorFrame(full)
		if derr != nil {
			return 0, nil, true, derr
		}
		c.putConn(pc)
		return st, []byte(text), true, nil
	case message.FrameBatch:
		if reqKind != message.FrameBatch {
			return 0, nil, true, fmt.Errorf("hopwire: batch response to a kind-%d frame", reqKind)
		}
		c.putConn(pc)
		return http.StatusOK, full, true, nil
	case message.FrameSingle, message.FrameTelemetry:
		if h.Kind != reqKind {
			return 0, nil, true, fmt.Errorf("hopwire: kind-%d response to a kind-%d frame", h.Kind, reqKind)
		}
		_, entries, derr := message.DecodeBatchFrame(full)
		if derr != nil {
			return 0, nil, true, derr
		}
		st := entries[0].Status
		if st == 0 {
			st = http.StatusOK
		}
		c.putConn(pc)
		return st, entries[0].Body, true, nil
	default:
		return 0, nil, true, fmt.Errorf("hopwire: unexpected frame kind %d", h.Kind)
	}
}
