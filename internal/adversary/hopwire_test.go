package adversary_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/enclave"
	"pprox/internal/hopwire"
	"pprox/internal/lrs/engine"
	"pprox/internal/message"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

// hopwire_test.go puts the adversary directly on the UA→IA wire: with the
// binary frame transport the tap is no longer an HTTP middleware but the
// connection itself, so the test records every byte the UA writes through
// a wrapped dialer and analyses raw frames — exactly the view a network
// attacker (§2.3 ➋) gets of the new transport.

// recordingDialer taps every connection dialed to the target address,
// appending the client→server byte stream to a per-connection capture.
type recordingDialer struct {
	transport.Dialer
	target string

	mu       sync.Mutex
	captures []*bytes.Buffer
}

func (d *recordingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := d.Dialer.DialContext(ctx, network, addr)
	if err != nil || !strings.HasPrefix(addr, d.target) {
		return conn, err
	}
	buf := &bytes.Buffer{}
	d.mu.Lock()
	d.captures = append(d.captures, buf)
	d.mu.Unlock()
	return &recordingConn{Conn: conn, d: d, buf: buf}, nil
}

// streams returns a copy of each connection's captured byte stream.
func (d *recordingDialer) streams() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][]byte, 0, len(d.captures))
	for _, b := range d.captures {
		out = append(out, append([]byte(nil), b.Bytes()...))
	}
	return out
}

type recordingConn struct {
	net.Conn
	d   *recordingDialer
	buf *bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.d.mu.Lock()
	c.buf.Write(p)
	c.d.mu.Unlock()
	return c.Conn.Write(p)
}

// TestHopwireFramesCloseSizeChannel drives one shuffle epoch of posts
// whose plaintext payloads differ wildly in length, captures the UA→IA
// frame bytes at the connection level, and requires the §4.3 guarantee to
// survive the new transport: every slot in the released frame has the
// same wire footprint AND the same unpadded body length (the wire padding
// scheme is public, so the adversary is assumed to strip it). With all S
// observable sizes identical, a size-based linking classifier has no
// advantage over the uniform 1/S guess the shuffle already forces.
func TestHopwireFramesCloseSizeChannel(t *testing.T) {
	eachKeyMaterial(t, testHopwireFramesCloseSizeChannel)
}

func testHopwireFramesCloseSizeChannel(t *testing.T, km keyMaterial) {
	const s = 8
	net2 := transport.NewNetwork()
	t.Cleanup(func() { net2.Close() })

	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform := enclave.NewPlatform(as)
	uaEncl := proxy.NewUAEnclave(platform)
	iaEncl := proxy.NewIAEnclave(platform, proxy.IAOptions{})
	uaKeys, err := km.newKeys()
	if err != nil {
		t.Fatal(err)
	}
	iaKeys, err := km.newKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.PairLinkKey(uaKeys, iaKeys); err != nil {
		t.Fatal(err)
	}
	if err := uaKeys.Provision(as, uaEncl, proxy.UAIdentity); err != nil {
		t.Fatal(err)
	}
	if err := iaKeys.Provision(as, iaEncl, proxy.IAIdentityFor(proxy.IAOptions{})); err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.DefaultConfig())
	lrsL, err := net2.Listen("lrs")
	if err != nil {
		t.Fatal(err)
	}
	lrsShutdown := transport.Serve(lrsL, engine.NewHandler(eng))
	t.Cleanup(func() { lrsShutdown() })

	httpClient := transport.HTTPClient(net2, 30*time.Second)
	ia, err := proxy.New(proxy.Config{
		Role: proxy.RoleIA, Enclave: iaEncl, Next: "http://lrs",
		ShuffleSize: s, ShuffleTimeout: 2 * time.Second,
		Dialer: net2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ia.Close() })
	iaL, err := net2.Listen("ia")
	if err != nil {
		t.Fatal(err)
	}
	iaShutdown := hopwire.ServeHTTPAndFrames(iaL, ia)
	t.Cleanup(func() { iaShutdown() })

	// The adversary's vantage point: every byte the UA writes toward the
	// IA, captured below the protocol.
	tapped := &recordingDialer{Dialer: net2, target: "ia"}
	ua, err := proxy.New(proxy.Config{
		Role: proxy.RoleUA, Enclave: uaEncl, Next: "http://ia",
		ShuffleSize: s, ShuffleTimeout: 2 * time.Second,
		Dialer: tapped,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ua.Close() })
	uaL, err := net2.Listen("ua")
	if err != nil {
		t.Fatal(err)
	}
	uaShutdown := transport.Serve(uaL, ua)
	t.Cleanup(func() { uaShutdown() })

	cl := client.New(proxy.Bundle(uaKeys, iaKeys), httpClient, "http://ua")

	// One shuffle epoch of posts with different plaintext sizes: victim
	// i interacts with an item whose name grows with i (up to the 62-byte
	// identifier bound the fixed-size crypto block accepts).
	ctx := context.Background()
	var wg sync.WaitGroup
	users := make([]string, s)
	for i := 0; i < s; i++ {
		users[i] = fmt.Sprintf("victim-%02d", i)
		item := "padding-probe-" + strings.Repeat("x", 1+i*6)
		wg.Add(1)
		go func(u, item string) {
			defer wg.Done()
			if err := cl.Post(ctx, u, item, ""); err != nil {
				t.Errorf("post %s: %v", u, err)
			}
		}(users[i], item)
	}
	wg.Wait()

	// Reassemble the captured byte streams into frames. Anything that is
	// not a parseable frame would mean the hop silently fell back to HTTP
	// and the capture missed traffic.
	var frames [][]byte
	for _, stream := range tapped.streams() {
		for len(stream) > 0 {
			h, err := message.ParseFrameHeader(stream)
			if err != nil {
				t.Fatalf("captured stream is not frame-aligned: %v", err)
			}
			if h.FrameSize() > len(stream) {
				t.Fatalf("captured stream truncated mid-frame: need %d, have %d", h.FrameSize(), len(stream))
			}
			frames = append(frames, stream[:h.FrameSize()])
			stream = stream[h.FrameSize():]
		}
	}
	if len(frames) == 0 {
		t.Fatal("adversary captured no frames on the UA→IA wire")
	}

	slotSizes := map[int]bool{}
	bodySizes := map[int]bool{}
	sawEpoch := false
	for _, frame := range frames {
		h, err := message.ParseFrameHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		if h.Kind != message.FrameBatch {
			continue
		}
		epoch, entries, err := message.UnmarshalBatchEpoch(frame)
		if err != nil {
			t.Fatalf("captured batch frame: %v", err)
		}
		if len(entries) != s {
			// A partial epoch (flush-timer remainder) would weaken the
			// 1/S claim; this workload must release full epochs.
			t.Fatalf("captured frame carries %d entries, want S=%d", len(entries), s)
		}
		sawEpoch = epoch != 0
		slotSizes[h.SlotSize] = true
		for i, e := range entries {
			// Ids are bare post-shuffle slot positions, as in the HTTP
			// envelope — nothing to correlate with arrival order.
			if e.ID != i {
				t.Errorf("entry %d carries id %d: ids must be slot positions", i, e.ID)
			}
			// The adversary strips the public wire padding and still
			// learns only the constant hop-ciphertext length.
			bodySizes[len(e.Body)] = true
			for _, u := range users {
				if bytes.Contains(e.Body, []byte(u)) {
					t.Errorf("entry %d body contains plaintext user %q", i, u)
				}
			}
			if bytes.Contains(e.Body, []byte("padding-probe-")) {
				t.Errorf("entry %d body contains plaintext item material", i)
			}
		}
	}
	if !sawEpoch {
		t.Error("captured frames carry no epoch id: the IA cannot demux without one")
	}
	if len(slotSizes) != 1 {
		t.Errorf("slot sizes vary across frames: %v — wire geometry leaks batch composition", keysInt(slotSizes))
	}
	if len(bodySizes) != 1 {
		t.Errorf("unpadded body sizes vary: %v — the §4.3 size channel reopened on the frame "+
			"transport (a size classifier would beat the 1/S bound)", keysInt(bodySizes))
	}
}

func keysInt(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
