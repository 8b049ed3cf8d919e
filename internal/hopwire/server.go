package hopwire

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"pprox/internal/message"
)

// Server serves frame connections by bridging each frame into the node's
// existing HTTP stack: a batch frame becomes an in-memory POST /batch
// whose body is the frame itself. The bridge keeps every middleware the
// node already stacks — fault injection, metrics, audit routes — on the
// frame path for free, and guarantees that frames and HTTP expose the
// same behaviour at every node.
type Server struct {
	h http.Handler

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer wraps a node's HTTP handler for frame serving.
func NewServer(h http.Handler) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		h:      h,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
}

// Close drops every live frame connection and cancels in-flight bridged
// requests.
func (s *Server) Close() {
	s.cancel()
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.closed = true
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// ServeConn serves frames on one connection until it fails, idles out, or
// the server closes. It blocks; the mux runs it on the connection's
// goroutine.
func (s *Server) ServeConn(conn net.Conn) {
	if !s.track(conn) {
		conn.Close()
		return
	}
	defer s.untrack(conn)
	defer conn.Close()

	br, ok := connReader(conn)
	if !ok {
		br = bufio.NewReaderSize(conn, 32<<10)
	}
	hdr := make([]byte, message.FrameHeaderSize)
	// One read buffer per connection, grown to the largest frame seen:
	// nothing dispatched retains the request frame (the bridge hands the
	// handler stack a body it copies), so the next frame may overwrite it.
	var frameBuf []byte
	for {
		// Between frames the connection may idle in the peer's pool.
		conn.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		h, err := message.ParseFrameHeader(hdr)
		if err != nil {
			// The stream position is unknown after a malformed header:
			// answer once, then drop the connection.
			conn.SetWriteDeadline(time.Now().Add(serverIOTimeout))
			conn.Write(message.AppendErrorFrame(nil, 0, http.StatusBadRequest, "bad frame"))
			return
		}
		if cap(frameBuf) < h.FrameSize() {
			frameBuf = make([]byte, h.FrameSize())
		}
		frame := frameBuf[:h.FrameSize()]
		copy(frame, hdr)
		conn.SetReadDeadline(time.Now().Add(serverIOTimeout))
		if _, err := io.ReadFull(br, frame[message.FrameHeaderSize:]); err != nil {
			return
		}
		resp, last := s.dispatch(h, frame, conn.RemoteAddr().String())
		if resp == nil {
			return // the handler aborted: drop the link unanswered
		}
		conn.SetWriteDeadline(time.Now().Add(serverIOTimeout))
		if _, err := conn.Write(resp); err != nil || last {
			return
		}
		conn.SetDeadline(time.Time{})
	}
}

// dispatch bridges one request frame into the HTTP stack and renders the
// response frame. last reports that the link must close after it: the
// handler answered Connection: close, as a soft-draining node does, so
// the peer's pool evicts the link and redials through its balancer. A nil
// response means the handler aborted the exchange.
func (s *Server) dispatch(h message.FrameHeader, frame []byte, remote string) (resp []byte, last bool) {
	if h.Kind != message.FrameBatch {
		return message.AppendErrorFrame(nil, h.Epoch, http.StatusBadRequest, "bad frame kind"), false
	}
	// The frame IS the /batch body — no re-encode on either side.
	rec := s.bridge(frame, remote)
	if rec == nil {
		return nil, true
	}
	if body := rec.buf.Bytes(); rec.status == http.StatusOK && message.IsFrame(body) {
		return body, rec.last()
	}
	return message.AppendErrorFrame(nil, h.Epoch, rec.status, errText(rec.buf.Bytes())), rec.last()
}

// bridge synthesizes an in-memory POST /batch against the node's handler
// stack. It returns nil when the handler panicked with
// http.ErrAbortHandler — net/http's signal to drop the connection
// unanswered, which a frame link honours the same way.
func (s *Server) bridge(body []byte, remote string) (rec *respRecorder) {
	rec = &respRecorder{}
	req, err := http.NewRequestWithContext(s.ctx, http.MethodPost, message.BatchPath, bytes.NewReader(body))
	if err != nil {
		rec.status = http.StatusInternalServerError
		return rec
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.RemoteAddr = remote
	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				panic(v)
			}
			rec = nil
		}
	}()
	s.h.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec
}

// errText renders an HTTP error body as constant-class frame text (the
// handlers emit one-line class strings via http.Error).
func errText(body []byte) string {
	return strings.TrimSpace(string(body))
}

// respRecorder is the minimal in-memory http.ResponseWriter behind the
// bridge.
type respRecorder struct {
	header http.Header
	buf    bytes.Buffer
	status int
}

func (r *respRecorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

// last reports whether the handler asked for the connection to close.
func (r *respRecorder) last() bool {
	return strings.EqualFold(r.header.Get("Connection"), "close")
}

func (r *respRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *respRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(p)
}
