package proxy_test

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pprox/internal/audit"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/resilience"
	"pprox/internal/transport"
)

// batchPolicy keeps ladder backoffs negligible in tests.
var batchPolicy = &resilience.Policy{
	HopTimeout:  5 * time.Second,
	MaxAttempts: 2,
	BackoffBase: time.Millisecond,
	BackoffMax:  2 * time.Millisecond,
}

// TestBatchEndToEnd drives one full epoch of concurrent gets through the
// pipeline and checks the headline property: every result correct while
// the UA enclave is crossed ~once per epoch instead of once per message.
func TestBatchEndToEnd(t *testing.T) {
	const s = 8
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: 200 * time.Millisecond,
		pairLink:       true,
	})
	ctx := ctxT(t)

	ecallsBefore := st.uaEncl.EcallCount()
	msgsBefore := st.uaEncl.MessageCount()

	errc := make(chan error, s)
	for i := 0; i < s; i++ {
		go func(i int) {
			items, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
			if err == nil && len(items) != message.MaxRecommendations {
				err = fmt.Errorf("got %d items", len(items))
			}
			errc <- err
		}(i)
	}
	for i := 0; i < s; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("batched get: %v", err)
		}
	}

	if got := st.uaEncl.MessageCount() - msgsBefore; got != s {
		t.Errorf("UA enclave messages = %d, want %d", got, s)
	}
	// One ua/get crossing per epoch; allow a second epoch if the timer
	// split the burst.
	if got := st.uaEncl.EcallCount() - ecallsBefore; got > 2 {
		t.Errorf("UA enclave crossings = %d for %d messages, want ≤ 2", got, s)
	}
	stats := st.ua.BatchStats()
	if stats.Batches == 0 || stats.Messages != s {
		t.Errorf("UA batch stats = %+v, want ≥1 batch carrying %d messages", stats, s)
	}
	if stats.Retries != 0 || stats.Splits != 0 || stats.Degraded != 0 {
		t.Errorf("healthy run descended the ladder: %+v", stats)
	}
	iaStats := st.ia.BatchStats()
	if iaStats.Batches == 0 || iaStats.Messages != s {
		t.Errorf("IA batch stats = %+v, want the demultiplexed epoch", iaStats)
	}
	if flushes, _ := st.ia.Shuffler().Stats(); flushes == 0 {
		t.Error("IA shuffler saw no epochs: ReleaseBatch accounting missing")
	}
}

// TestBatchGarbageNeverTakesAShuffleSlot: requests are processed by the
// enclave when they arrive, so one the enclave rejects is answered at
// once and never enters the shuffle buffer. An adversary who pads an
// epoch with S−1 undecryptable requests therefore cannot make it release
// on occupancy around one victim: the victim waits until S−1 real
// requests have joined it, every envelope the UA forwards still carries
// exactly S messages, and the auditor sees only full epochs.
func TestBatchGarbageNeverTakesAShuffleSlot(t *testing.T) {
	const s = 4
	var mu sync.Mutex
	var frames []int // entries per forwarded batch envelope
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: time.Minute, // only occupancy may release an epoch here
		pairLink:       true,
		iaMiddleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == message.BatchPath {
					body, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(body))
					_, entries, err := message.UnmarshalBatchEpoch(body)
					if err != nil {
						t.Errorf("forwarded envelope does not parse: %v", err)
					}
					mu.Lock()
					frames = append(frames, len(entries))
					mu.Unlock()
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	auditor := audit.New(audit.Config{TargetS: s})
	st.ua.SetEpochObserver(func(rec proxy.EpochRecord) { auditor.ObserveEpoch("ua", rec.Batch) })
	st.ia.SetEpochObserver(func(rec proxy.EpochRecord) { auditor.ObserveEpoch("ia", rec.Batch) })
	ctx := ctxT(t)

	// S−1 well-formed requests whose user field decrypts to nothing.
	garbage, err := message.Marshal(message.GetRequest{
		EncUser:    message.Encode64(make([]byte, ppcrypto.RSACiphertextSize)),
		EncTempKey: message.Encode64(make([]byte, ppcrypto.RSACiphertextSize)),
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := transport.HTTPClient(st.net, 5*time.Second)
	for i := 0; i < s-1; i++ {
		resp, err := raw.Post("http://ua"+message.QueriesPath, "application/json", bytes.NewReader(garbage))
		if err != nil {
			t.Fatalf("garbage request %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("garbage request %d: status %d, want 400 at once", i, resp.StatusCode)
		}
	}
	if got := st.ua.Shuffler().Pending(); got != 0 {
		t.Fatalf("shuffle buffer holds %d messages after %d rejected requests, want 0", got, s-1)
	}

	// One valid request: S−1 rejected + 1 valid must NOT release an epoch.
	errc := make(chan error, s)
	get := func(i int) {
		items, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
		if err == nil && len(items) != message.MaxRecommendations {
			err = fmt.Errorf("got %d items", len(items))
		}
		errc <- err
	}
	go get(0)
	deadline := time.Now().Add(5 * time.Second)
	for st.ua.Shuffler().Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the valid request never joined the shuffle buffer")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if flushes, _ := st.ua.Shuffler().Stats(); flushes != 0 {
		t.Fatalf("epoch released with 1 real message and %d rejected ones", s-1)
	}
	select {
	case err := <-errc:
		t.Fatalf("the valid request was answered alone (err %v): its anonymity set was the garbage", err)
	default:
	}

	// S−1 more valid requests fill the epoch for real.
	for i := 1; i < s; i++ {
		go get(i)
	}
	for i := 0; i < s; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("valid get: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) != 1 || frames[0] != s {
		t.Errorf("forwarded envelopes carried %v messages, want exactly one of %d", frames, s)
	}
	if state := auditor.State(); state != audit.StateOK {
		t.Errorf("auditor state = %v, want ok", state)
	}
	if epochs, underfilled, _, _ := auditor.Stats(); underfilled != 0 || epochs != 2 {
		t.Errorf("auditor saw %d epochs, %d under-filled; want 2 (UA, IA) and 0", epochs, underfilled)
	}
	// The rejected requests rode the epoch's one open crossing like the
	// valid ones: processing on arrival did not cost extra crossings.
	if got := st.uaEncl.EcallCount(); got != 1 {
		t.Errorf("UA enclave crossings = %d, want 1", got)
	}
	if got := st.uaEncl.MessageCount(); got != 2*s-1 {
		t.Errorf("UA enclave messages = %d, want %d", got, 2*s-1)
	}
}

// TestBatchMixedPostsAndGets puts both message kinds in one epoch: the
// pipeline must demultiplex kinds into separate batch ECALLs and routes
// while keeping every result correct.
func TestBatchMixedPostsAndGets(t *testing.T) {
	const s = 6
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: 200 * time.Millisecond,
		pairLink:       true,
	})
	ctx := ctxT(t)

	errc := make(chan error, s)
	for i := 0; i < s/2; i++ {
		go func(i int) {
			errc <- st.client.Post(ctx, fmt.Sprintf("user-%d", i), "item-1", "")
		}(i)
		go func(i int) {
			_, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
			errc <- err
		}(i)
	}
	for i := 0; i < s; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("mixed epoch message %d: %v", i, err)
		}
	}
	if stats := st.ua.BatchStats(); stats.Messages != s {
		t.Errorf("UA batch messages = %d, want %d", stats.Messages, s)
	}
}

// TestBatchDegradationLadder makes the IA refuse every frame carrying
// more than one entry, so the whole-frame attempts and both split halves
// fail: every message must still succeed via degradation to a one-entry
// frame of its own, and the ladder counters must show the descent.
func TestBatchDegradationLadder(t *testing.T) {
	const s = 4
	var batchFails atomic.Int64
	st := newStack(t, stackOptions{
		useStub:        true,
		shuffleSize:    s,
		shuffleTimeout: 100 * time.Millisecond,
		pairLink:       true,
		policy:         batchPolicy,
		iaMiddleware: func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				if _, entries, err := message.UnmarshalBatchEpoch(body); err == nil && len(entries) > 1 {
					batchFails.Add(1)
					http.Error(w, "injected", http.StatusServiceUnavailable)
					return
				}
				next.ServeHTTP(w, r)
			})
		},
	})
	ctx := ctxT(t)

	errc := make(chan error, s)
	for i := 0; i < s; i++ {
		go func(i int) {
			items, err := st.client.Get(ctx, fmt.Sprintf("user-%d", i))
			if err == nil && len(items) != message.MaxRecommendations {
				err = fmt.Errorf("got %d items", len(items))
			}
			errc <- err
		}(i)
	}
	for i := 0; i < s; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("get during /batch outage: %v", err)
		}
	}

	// Each rung is counted before its answers are delivered, so the
	// counts are complete once the last reply is in.
	stats := st.ua.BatchStats()
	if stats.Retries == 0 {
		t.Errorf("no whole-envelope retries recorded: %+v", stats)
	}
	if stats.Splits == 0 {
		t.Errorf("no split sends recorded: %+v", stats)
	}
	if stats.Degraded != s {
		t.Errorf("degraded = %d, want all %d messages", stats.Degraded, s)
	}
	if got := batchFails.Load(); got < 3 {
		t.Errorf("injector refused %d frames, want ≥ 3 (retry + both halves)", got)
	}
}

// TestBatchConfigValidation: there is one pipeline, so the configurations
// that used to need the per-message path — pass-through, S ≤ 1 — are
// valid, and a UA always gets a shuffler (size 1 when shuffling is off).
// Every layer reaches its next hop through its dialer, so it needs one.
func TestBatchConfigValidation(t *testing.T) {
	dialer := &net.Dialer{}
	for _, cfg := range []proxy.Config{
		{Role: proxy.RoleUA, Next: "http://ia", PassThrough: true, ShuffleSize: 4, Dialer: dialer},
		{Role: proxy.RoleUA, Next: "http://ia", PassThrough: true, Dialer: dialer},
		{Role: proxy.RoleUA, Next: "http://ia", PassThrough: true, ShuffleSize: 1, Dialer: dialer},
	} {
		l, err := proxy.New(cfg)
		if err != nil {
			t.Fatalf("New(S=%d, pass-through): %v", cfg.ShuffleSize, err)
		}
		if got, want := l.Shuffler().Size(), max(cfg.ShuffleSize, 1); got != want {
			t.Errorf("S=%d: UA shuffler size %d, want %d", cfg.ShuffleSize, got, want)
		}
		l.Close()
	}
	// New refuses a config without Dialer.
	if _, err := proxy.New(proxy.Config{
		Role: proxy.RoleUA, Next: "http://ia", PassThrough: true,
	}); err == nil {
		t.Error("New accepted a config without Dialer")
	}
}
