package hopwire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/message"
	"pprox/internal/transport"
)

// echoHandler is a stand-in node: /batch echoes the frame's entries
// back with status 200 under the same epoch id (the wire-format rule),
// /healthz answers ok.
func echoHandler(t *testing.T) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case message.BatchPath:
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "read", http.StatusBadRequest)
				return
			}
			epoch, entries, err := message.UnmarshalBatchEpoch(body)
			if err != nil {
				http.Error(w, "bad envelope", http.StatusBadRequest)
				return
			}
			out := make([]message.BatchEntry, len(entries))
			for i, e := range entries {
				out[i] = message.BatchEntry{ID: e.ID, Status: http.StatusOK, Body: e.Body}
			}
			payload, err := message.MarshalBatchEpoch(nil, epoch, out)
			if err != nil {
				http.Error(w, "marshal", http.StatusInternalServerError)
				return
			}
			w.Write(payload)
		case message.HealthPath:
			fmt.Fprint(w, "ok")
		default:
			http.NotFound(w, r)
		}
	})
}

// frameOf marshals a one-entry batch frame carrying body.
func frameOf(t *testing.T, epoch uint64, body []byte) []byte {
	t.Helper()
	frame, err := message.MarshalBatchEpoch(nil, epoch,
		[]message.BatchEntry{{ID: 0, Kind: message.BatchKindGet, Body: body}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// echo sends a one-entry batch frame carrying body and returns the body
// the echo peer sent back.
func echo(ctx context.Context, c *Client, epoch uint64, body string) (string, error) {
	frame, err := message.MarshalBatchEpoch(nil, epoch,
		[]message.BatchEntry{{ID: 0, Kind: message.BatchKindGet, Body: []byte(body)}})
	if err != nil {
		return "", err
	}
	status, resp, err := c.RoundTrip(ctx, message.BatchPath, frame)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("status %d", status)
	}
	got, out, err := message.UnmarshalBatchEpoch(resp)
	if err != nil {
		return "", err
	}
	if got != epoch || len(out) != 1 {
		return "", fmt.Errorf("answer epoch %d with %d entries, want epoch %d with 1", got, len(out), epoch)
	}
	return string(out[0].Body), nil
}

func startFramePeer(t *testing.T, n *transport.Network, addr string, h http.Handler) func() error {
	t.Helper()
	l, err := n.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	shutdown := ServeHTTPAndFrames(l, h)
	t.Cleanup(func() { shutdown() })
	return shutdown
}

func TestBatchExchangeRoundTrip(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The second body makes a frame far past any socket buffer.
	in := []message.BatchEntry{
		{ID: 0, Kind: message.BatchKindGet, Body: []byte("q-0")},
		{ID: 1, Kind: message.BatchKindPost, Body: bytes.Repeat([]byte{0xC7}, 64<<10)},
	}
	frame, err := message.MarshalBatchEpoch(nil, 77, in)
	if err != nil {
		t.Fatal(err)
	}
	status, resp, err := c.RoundTrip(context.Background(), message.BatchPath, frame)
	if err != nil {
		t.Fatalf("RoundTrip: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	epoch, out, err := message.UnmarshalBatchEpoch(resp)
	if err != nil {
		t.Fatalf("response not an envelope: %v", err)
	}
	if epoch != 77 {
		t.Fatalf("response epoch = %d, want 77", epoch)
	}
	if len(out) != 2 || !bytes.Equal(out[0].Body, in[0].Body) || !bytes.Equal(out[1].Body, in[1].Body) || out[1].Status != http.StatusOK {
		t.Fatalf("echo of %d entries does not match the request", len(out))
	}
}

func TestSingleExchangeAndConnReuse(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 5; i++ {
		got, err := echo(context.Background(), c, uint64(i+1), "hello")
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if got != "hello" {
			t.Fatalf("exchange %d: echoed %q", i, got)
		}
	}
	st := c.Stats()
	if st.Exchanges != 5 {
		t.Fatalf("exchanges = %d, want 5", st.Exchanges)
	}
	if st.Dials != 1 || st.Reuses != 4 {
		t.Fatalf("dials/reuses = %d/%d, want 1/4 (persistent conn)", st.Dials, st.Reuses)
	}
}

func TestConcurrentExchanges(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))
	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			got, err := echo(context.Background(), c, uint64(i+1), want)
			if err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- fmt.Errorf("got %q, want %q (cross-exchange mixup)", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The mux must keep serving HTTP on the same listener: health probes and
// metrics scrapes share a proxy's address with frame traffic.
func TestMuxServesHTTPAlongsideFrames(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	hc := transport.HTTPClient(n, 5*time.Second)
	resp, err := hc.Get("http://peer" + message.HealthPath)
	if err != nil {
		t.Fatalf("HTTP over mux: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("healthz = (%d, %q)", resp.StatusCode, body)
	}

	c, _ := NewClient(n, "http://peer")
	defer c.Close()
	if _, err := echo(context.Background(), c, 1, "x"); err != nil {
		t.Fatalf("frames over mux: %v", err)
	}
}

// Only batch frames ride the transport: any other path, or a body that
// is not a batch frame, is refused before a connection is dialled. A nil
// client (an IA holds none) reads as zero and closes as a no-op.
func TestClientSendsOnlyBatchFrames(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))
	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	frame := frameOf(t, 1, []byte("x"))
	if _, _, err := c.RoundTrip(ctx, message.QueriesPath, frame); err == nil {
		t.Error("a frame to a per-message path was sent")
	}
	if _, _, err := c.RoundTrip(ctx, message.BatchPath, []byte(`{"v":1}`)); !errors.Is(err, message.ErrNotFrame) {
		t.Errorf("non-frame body: err = %v, want ErrNotFrame", err)
	}
	if st := c.Stats(); st.Dials != 0 {
		t.Errorf("refused sends dialled %d connections", st.Dials)
	}

	var none *Client
	if st := none.Stats(); st != (Stats{}) {
		t.Errorf("nil client stats = %+v", st)
	}
	none.Close()
}

// A UA pointed at an HTTP-only peer by mistake must fail fast instead of
// wedging in its write. A real net/http server reads the request line
// until a newline; the frame header's fixed CRLF ends it within 8 bytes,
// so the server answers 400 and closes while the client is still writing
// a frame far larger than any socket buffer — and newline-free, so
// nothing in the body could end the line instead. The client must see a
// transport error, not a timeout, well before its exchange deadline.
func TestHTTPOnlyPeerIsFastTransportError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})}
	go srv.Serve(l)
	defer srv.Close()

	c, err := NewClient(&net.Dialer{}, "http://"+l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	frame := frameOf(t, 1, bytes.Repeat([]byte{0xC7}, 1<<20))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, _, err = c.RoundTrip(ctx, message.BatchPath, frame)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("the exchange took %v; the write wedged", d)
	}
	if err == nil {
		t.Fatal("an HTTP-only peer answered a frame")
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("err = %v, want a transport error, not a timeout", err)
	}
	if st := c.Stats(); st.Exchanges != 0 {
		t.Errorf("stats = %+v, want no completed exchange", st)
	}
}

// A server restart between exchanges leaves the client holding a dead
// pooled conn; the health check plus the one-retry rule must recover
// without surfacing an error.
func TestPooledConnSurvivesPeerRestart(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	shutdown := startFramePeer(t, n, "peer", echoHandler(t))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := echo(context.Background(), c, 1, "a"); err != nil {
		t.Fatal(err)
	}

	// Restart the peer: the pooled conn is now dead.
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	l, err := n.Listen("peer")
	if err != nil {
		t.Fatal(err)
	}
	shutdown2 := ServeHTTPAndFrames(l, echoHandler(t))
	defer shutdown2()

	got, err := echo(context.Background(), c, 2, "b")
	if err != nil {
		t.Fatalf("exchange after peer restart: %v", err)
	}
	if got != "b" {
		t.Fatalf("echoed %q", got)
	}
}

// An error frame prices the whole exchange like an HTTP error status.
func TestErrorFrameMapsToStatus(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "next hop unavailable", http.StatusServiceUnavailable)
	}))

	c, err := NewClient(n, "http://peer")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	status, body, err := c.RoundTrip(context.Background(), message.BatchPath, frameOf(t, 1, []byte("x")))
	if err != nil {
		t.Fatalf("error statuses are results, not transport errors: %v", err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	if strings.TrimSpace(string(body)) != "next hop unavailable" {
		t.Fatalf("body = %q", body)
	}
}

// A dead peer is a transport error, for the breaker and the retry ladder.
func TestDeadPeerIsTransportError(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	c, err := NewClient(n, "http://nobody")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.RoundTrip(context.Background(), message.BatchPath, frameOf(t, 1, []byte("x"))); err == nil {
		t.Fatal("a frame to a dead peer succeeded")
	}
}

// The server must answer a malformed frame with an error frame and drop
// the connection instead of hanging or panicking.
func TestServerRejectsMalformedFrame(t *testing.T) {
	n := transport.NewNetwork()
	defer n.Close()
	startFramePeer(t, n, "peer", echoHandler(t))

	conn, err := n.DialContext(context.Background(), "mem", "peer")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid magic, hostile header fields.
	bad := []byte("PPXB")
	bad = append(bad, bytes.Repeat([]byte{0xFF}, message.FrameHeaderSize-4)...)
	if _, err := conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	respHdr := make([]byte, message.FrameHeaderSize)
	if _, err := io.ReadFull(conn, respHdr); err != nil {
		t.Fatalf("no response to malformed frame: %v", err)
	}
	h, err := message.ParseFrameHeader(respHdr)
	if err != nil {
		t.Fatalf("response not a frame header: %v", err)
	}
	if h.Kind != message.FrameError {
		t.Fatalf("response kind = %d, want error frame", h.Kind)
	}
}
