package hopwire

import (
	"bufio"
	"net"
	"net/http"
	"sync"
	"time"

	"pprox/internal/message"
	"pprox/internal/transport"
)

// sniffTimeout bounds the wait for a new connection's first bytes. Both
// protocols write immediately after dialing, so a silent connection is a
// stray, not a slow client.
const sniffTimeout = 30 * time.Second

// ServeHTTPAndFrames serves one listener with both protocols: each
// accepted connection is sniffed on its first four bytes — the frame
// magic routes it to the frame server, anything else to a regular HTTP
// server running the same handler. One address therefore serves hopwire
// exchanges, health probes, metrics scrapes, and direct REST clients at
// once — an LRS answers the IA in frames and its own REST clients (b1,
// lrs_direct_mixed) over HTTP on the same port.
//
// The returned shutdown stops accepting, closes live frame connections,
// and drains the HTTP side exactly like transport.Serve.
func ServeHTTPAndFrames(l net.Listener, h http.Handler) (shutdown func() error) {
	fs := NewServer(h)
	httpL := newChanListener(l.Addr())
	httpShutdown := transport.Serve(httpL, h)

	var wg sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sniffAndRoute(conn, fs, httpL)
			}()
		}
	}()

	var once sync.Once
	return func() error {
		var err error
		once.Do(func() {
			l.Close()
			<-acceptDone
			// Order matters: the HTTP drain first (it completes in-flight
			// bridged responses), then the frame conns, then the sniffers.
			err = httpShutdown()
			fs.Close()
			wg.Wait()
		})
		return err
	}
}

// sniffAndRoute peeks a connection's first bytes and hands it to the
// matching protocol server. The peeked bytes stay in the connection's
// buffered reader, which travels with it.
func sniffAndRoute(conn net.Conn, fs *Server, httpL *chanListener) {
	bc := &bufferedConn{Conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}
	conn.SetReadDeadline(time.Now().Add(sniffTimeout))
	first, err := bc.br.Peek(4)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	if message.IsFrame(first) {
		fs.ServeConn(bc)
		return
	}
	if !httpL.deliver(bc) {
		conn.Close()
	}
}

// bufferedConn is a net.Conn whose reads go through the sniffing buffer.
type bufferedConn struct {
	net.Conn
	br *bufio.Reader
}

func (c *bufferedConn) Read(p []byte) (int, error) { return c.br.Read(p) }

// connReader recovers the sniffing buffer so the frame server does not
// stack a second one.
func connReader(c net.Conn) (*bufio.Reader, bool) {
	if bc, ok := c.(*bufferedConn); ok {
		return bc.br, true
	}
	return nil, false
}

// chanListener adapts delivered connections to the net.Listener contract
// the HTTP server consumes.
type chanListener struct {
	addr net.Addr
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{addr: addr, ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return l.addr }

// deliver hands a sniffed connection to the HTTP accept loop, reporting
// false once the listener closed.
func (l *chanListener) deliver(c net.Conn) bool {
	select {
	case l.ch <- c:
		return true
	case <-l.done:
		return false
	}
}
