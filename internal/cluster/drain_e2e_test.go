package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/message"
	"pprox/internal/node"
	"pprox/internal/proxy"
	"pprox/internal/transport"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainPairSoftPhaseOverFrames retires the second pair of a static
// 2×2 deployment under steady traffic on frames. The balancer stops
// routing to it first (Register with the survivors only); then the
// drained IA answers Connection: close, its frame links close after that
// reply and the UAs redial through the balancer, so each link carries at
// most one frame once the drain began and the IA goes idle: node.Drain
// finishes in the soft phase — no frame refused — with clean reports, and
// every request succeeds.
func TestDrainPairSoftPhaseOverFrames(t *testing.T) {
	const s = 2
	var victim atomic.Pointer[proxy.Layer]
	var late, refused atomic.Int64
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled:   true,
		UA:             2,
		IA:             2,
		Encryption:     true,
		ItemPseudonyms: true,
		Shuffle:        s,
		ShuffleTimeout: 500 * time.Millisecond,
		UseStub:        true,
		StubDelay:      30 * time.Millisecond,
		NodeMiddleware: func(addr string, h http.Handler) http.Handler {
			if addr != "ia-1" { // the second pair is the drain victim
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if l := victim.Load(); r.URL.Path == message.BatchPath && l != nil && l.Draining() {
					late.Add(1)
				}
				sw := &statusWriter{ResponseWriter: w}
				h.ServeHTTP(sw, r)
				if sw.status == http.StatusServiceUnavailable {
					refused.Add(1)
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	victim.Store(d.IALayers[1])
	uas := d.UALayers

	// Steady closed-loop traffic through the surviving UA, with enough
	// concurrent epochs that it holds frame links to both IAs and keeps
	// the victim busy.
	cl := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), transport.HTTPClient(d.Net, 10*time.Second), "http://ua-0")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent, failed atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if _, err := cl.Get(ctx, fmt.Sprintf("drain-%d-%d", w, i)); err != nil {
					failed.Add(1)
				}
				cancel()
				sent.Add(1)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	waitFor(t, "frames at both IAs", func() bool {
		return d.IALayers[0].BatchStats().Batches > 4 && d.IALayers[1].BatchStats().Batches > 4
	})
	var links uint64
	for _, ua := range uas {
		links += ua.Hopwire().Stats().Dials
	}
	// One get parked in the victim UA's shuffler: the drain waits out its
	// flush timer, while the survivor keeps sending epochs.
	parked := client.New(proxy.Bundle(d.UAKeys, d.IAKeys), transport.HTTPClient(d.Net, 10*time.Second), "http://ua-1")
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := parked.Get(context.Background(), "parked"); err != nil {
			failed.Add(1)
		}
	}()
	waitFor(t, "a get parked on the victim UA", func() bool { return uas[1].Shuffler().Pending() == 1 })

	d.Balancer.Register("ua", "ua-0")
	d.Balancer.Register("ia", "ia-0")
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := node.Drain(ctx, uas[1], d.IALayers[1]); err != nil {
		t.Errorf("the drain ran into the hard phase: %v", err)
	}
	for _, l := range []*proxy.Layer{uas[1], d.IALayers[1]} {
		if rep := l.DrainReport(); !rep.Clean {
			t.Errorf("drain report %+v, want clean", rep)
		}
	}
	if n := refused.Load(); n != 0 {
		t.Errorf("the drained IA refused %d frames; the soft phase should have sufficed", n)
	}
	if n := late.Load(); n > int64(links) {
		t.Errorf("the drained IA received %d frames after its drain began over at most %d frame links; each link should carry at most one", n, links)
	}

	// Traffic keeps flowing on the surviving pair.
	before := sent.Load()
	waitFor(t, "traffic on the surviving pair", func() bool { return sent.Load() > before+8 })
	if n := failed.Load(); n != 0 {
		t.Errorf("%d of %d gets failed across the drain", n, sent.Load())
	}
}

// statusWriter records the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}
