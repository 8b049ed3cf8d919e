// Package transport provides the network substrate the PProx components
// run on: either real TCP or an in-memory network (memnet) with the same
// net.Listener / dialer contract. The in-memory network lets the full
// multi-node deployment of the paper's evaluation — injectors, proxy
// layers, load balancers, and the LRS — run inside one process with
// deterministic addressing, while examples and the cmd/ binaries use TCP.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Errors reported by the in-memory network.
var (
	// ErrAddressInUse reports a duplicate Listen on one address.
	ErrAddressInUse = errors.New("transport: address already in use")

	// ErrConnectionRefused reports a Dial to an address nobody listens on.
	ErrConnectionRefused = errors.New("transport: connection refused")

	// ErrNetworkClosed reports use of a closed network or listener.
	ErrNetworkClosed = errors.New("transport: closed")
)

// Dialer opens client connections; both the memnet Network and real TCP
// (via net.Dialer) satisfy it.
type Dialer interface {
	DialContext(ctx context.Context, network, addr string) (net.Conn, error)
}

// Network is an in-memory network: a registry of listeners addressed by
// opaque strings (e.g. "ua-1", "lrs-0"). The zero value is not usable; use
// NewNetwork.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener
	closed    bool
}

// NewNetwork creates an empty in-memory network.
func NewNetwork() *Network {
	return &Network{listeners: make(map[string]*listener)}
}

// Listen binds an address on the in-memory network.
func (n *Network) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetworkClosed
	}
	if _, dup := n.listeners[addr]; dup {
		return nil, fmt.Errorf("%w: %s", ErrAddressInUse, addr)
	}
	l := &listener{
		addr:    memAddr(addr),
		pending: make(chan net.Conn, 16),
		done:    make(chan struct{}),
		onClose: func() { n.unbind(addr) },
	}
	n.listeners[addr] = l
	return l, nil
}

func (n *Network) unbind(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, addr)
}

// DialContext connects to a listener on the in-memory network. The network
// argument is accepted for interface compatibility and ignored.
func (n *Network) DialContext(ctx context.Context, _, addr string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNetworkClosed
	}
	l, ok := n.listeners[addr]
	if !ok {
		// HTTP clients append a default port ("web" becomes "web:80");
		// fall back to the bare registered name.
		if host, _, splitErr := net.SplitHostPort(addr); splitErr == nil {
			l, ok = n.listeners[host]
		}
	}
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, addr)
	}

	client, server := net.Pipe()
	select {
	case l.pending <- server:
		// The send can race a concurrent Close: the conn may have landed
		// in pending after the drain loop finished. Re-check done — the
		// close happens-before the drain, so if done is still open here
		// the drain has not run and Accept (or the drain) owns the conn.
		select {
		case <-l.done:
			client.Close()
			server.Close()
			return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, addr)
		default:
			return client, nil
		}
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("%w: %s", ErrConnectionRefused, addr)
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}

// Close shuts the network down; existing listeners are closed.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ls := make([]*listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		ls = append(ls, l)
	}
	n.listeners = make(map[string]*listener)
	n.mu.Unlock()
	for _, l := range ls {
		l.closeWithoutUnbind()
	}
	return nil
}

var _ Dialer = (*Network)(nil)

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

type listener struct {
	addr    memAddr
	pending chan net.Conn
	done    chan struct{}
	onClose func()

	closeOnce sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.pending:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("accept %s: %w", l.addr, ErrNetworkClosed)
	}
}

func (l *listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.drainPending()
		if l.onClose != nil {
			l.onClose()
		}
	})
	return nil
}

func (l *listener) closeWithoutUnbind() {
	l.closeOnce.Do(func() {
		close(l.done)
		l.drainPending()
	})
}

// drainPending closes server-side pipe conns queued in pending at close
// time. Without this, a conn accepted by the channel but never by
// Accept keeps its dialer blocked until the client's own timeout —
// closing the server end makes the peer's reads fail immediately.
func (l *listener) drainPending() {
	for {
		select {
		case c := <-l.pending:
			c.Close()
		default:
			return
		}
	}
}

func (l *listener) Addr() net.Addr { return l.addr }

// HTTPClient builds an HTTP client whose connections go through the given
// dialer; pass a *Network for in-memory deployments or a *net.Dialer for
// TCP. Connection pooling is tuned for the high-concurrency open-loop
// injector used by the evaluation.
func HTTPClient(d Dialer, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			DialContext:         d.DialContext,
			MaxIdleConns:        4096,
			MaxIdleConnsPerHost: 1024,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// Serve runs an HTTP handler on a listener in a background goroutine and
// returns a shutdown function. It is the common bring-up path for every
// in-process node (proxy instances, LRS front ends, stubs).
func Serve(l net.Listener, h http.Handler) (shutdown func() error) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// ErrServerClosed and listener-closed errors are the normal
		// shutdown path.
		_ = srv.Serve(l)
	}()
	return func() error {
		// A bounded graceful drain: connections the client pooled
		// without ever sending a request sit in StateNew, which
		// Shutdown would wait on until its deadline. Force-close
		// them after the grace period.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			err = srv.Close()
		}
		<-done
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
