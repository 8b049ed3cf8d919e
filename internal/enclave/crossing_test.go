package enclave

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// crossingEvents records what the two observers were told.
type crossingEvents struct {
	mu     sync.Mutex
	legacy []time.Duration
	batchN []int
	batchD []time.Duration
}

func observe(e *Enclave) *crossingEvents {
	ev := &crossingEvents{}
	e.SetEcallObserver(func(name string, d time.Duration, err error) {
		ev.mu.Lock()
		ev.legacy = append(ev.legacy, d)
		ev.mu.Unlock()
	})
	e.SetBatchObserver(func(name string, n int, d time.Duration) {
		ev.mu.Lock()
		ev.batchN = append(ev.batchN, n)
		ev.batchD = append(ev.batchD, d)
		ev.mu.Unlock()
	})
	return ev
}

// TestCrossingCountsOneEcallManyMessages is the open crossing's counting
// contract: messages submitted one at a time, as they arrive, still cost
// ONE crossing — counted, and its transition paid, when the first message
// enters — and the observers hear of it once, when it ends.
func TestCrossingCountsOneEcallManyMessages(t *testing.T) {
	e := newBatchEnclave(t)
	ev := observe(e)
	const cost = 5 * time.Millisecond
	e.SetTransitionCost(cost)

	c, err := e.OpenBatch("upper")
	if err != nil {
		t.Fatalf("OpenBatch: %v", err)
	}
	if got := e.EcallCount(); got != 0 {
		t.Errorf("EcallCount after open = %d, want 0 (nothing has entered yet)", got)
	}
	start := time.Now()
	for i, in := range []string{"a", "b", "boom", "d"} {
		out, herr, err := c.Submit([]byte(in))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if in == "boom" {
			if herr == nil {
				t.Error("poisoned message: handler error lost")
			}
			continue
		}
		if herr != nil || !bytes.Equal(out, bytes.ToUpper([]byte(in))) {
			t.Errorf("Submit %q = %q, %v", in, out, herr)
		}
	}
	d := time.Since(start)
	if d < cost || d >= 4*cost {
		t.Errorf("4 submits took %v, want the %v transition paid once", d, cost)
	}
	if got := e.EcallCount(); got != 1 {
		t.Errorf("EcallCount = %d, want 1", got)
	}
	if got := e.MessageCount(); got != 4 {
		t.Errorf("MessageCount = %d, want 4", got)
	}
	if len(ev.legacy) != 0 || len(ev.batchN) != 0 {
		t.Errorf("observers fired before Close: %d legacy, %d batch", len(ev.legacy), len(ev.batchN))
	}
	c.Close()
	c.Close() // idempotent
	if len(ev.legacy) != 1 {
		t.Errorf("legacy observer events = %d, want 1", len(ev.legacy))
	}
	if len(ev.batchN) != 1 || ev.batchN[0] != 4 {
		t.Errorf("batch observer = %v, want one event of 4 messages", ev.batchN)
	}
}

// TestCrossingNeverEnteredCountsNothing: a crossing that was opened and
// closed without admitting a message is not a crossing.
func TestCrossingNeverEnteredCountsNothing(t *testing.T) {
	e := newBatchEnclave(t)
	ev := observe(e)
	c, err := e.OpenBatch("upper")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if e.EcallCount() != 0 || e.MessageCount() != 0 {
		t.Errorf("counts = %d/%d, want 0/0", e.EcallCount(), e.MessageCount())
	}
	if len(ev.legacy) != 0 || len(ev.batchN) != 0 {
		t.Error("observers fired for a crossing that never entered the enclave")
	}
}

// TestCrossingGuards: the crossing-level failures. None of them runs a
// handler or counts anything.
func TestCrossingGuards(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	var ran atomic.Int64
	e.Register("noop", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		ran.Add(1)
		return in, nil
	})
	if _, err := e.OpenBatch("noop"); !errors.Is(err, ErrNotProvisioned) {
		t.Errorf("unprovisioned: err = %v, want ErrNotProvisioned", err)
	}
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenBatch("nope"); !errors.Is(err, ErrUnknownEcall) {
		t.Errorf("unknown entry point: err = %v, want ErrUnknownEcall", err)
	}
	c, err := e.OpenBatch("noop")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Submit([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, _, err := c.Submit([]byte("late")); !errors.Is(err, ErrCrossingClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrCrossingClosed", err)
	}
	if ran.Load() != 1 || e.MessageCount() != 1 || e.EcallCount() != 1 {
		t.Errorf("handler runs = %d, messages = %d, crossings = %d, want 1 each",
			ran.Load(), e.MessageCount(), e.EcallCount())
	}
}

// TestCrossingEPCAccounting: every submitted buffer is charged until the
// crossing ends; a buffer that does not fit is refused alone
// (ErrEPCExhausted), leaving the crossing open and its counts untouched.
func TestCrossingEPCAccounting(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 4)
	e.Register("noop", func(s Secrets, kv *KV, in []byte) ([]byte, error) { return in, nil })
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	baseline, _ := e.EPCUsage()

	c, err := e.OpenBatch("noop")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, _, err := c.Submit(make([]byte, PageSize)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if used, _ := e.EPCUsage(); used != baseline+i {
			t.Errorf("EPC pages after %d submits = %d, want %d (held until Close)", i, used, baseline+i)
		}
	}
	if _, _, err := c.Submit(make([]byte, 3*PageSize)); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("oversized Submit: err = %v, want ErrEPCExhausted", err)
	}
	if got := e.MessageCount(); got != 2 {
		t.Errorf("MessageCount = %d, want 2 (refused buffer uncounted)", got)
	}
	if _, _, err := c.Submit([]byte("small")); err != nil {
		t.Errorf("crossing unusable after a refused buffer: %v", err)
	}
	c.Close()
	if used, _ := e.EPCUsage(); used != baseline {
		t.Errorf("EPC pages after Close = %d, want %d", used, baseline)
	}
}

// TestCrossingReportsBusyTimeNotWallTime: an open crossing mostly waits
// for the next arrival; the observers must be told how long the enclave
// worked, not how long the crossing stayed open.
func TestCrossingReportsBusyTimeNotWallTime(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	const work = 5 * time.Millisecond
	e.Register("work", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		time.Sleep(work)
		return in, nil
	})
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	ev := observe(e)
	c, err := e.OpenBatch("work")
	if err != nil {
		t.Fatal(err)
	}
	const idle = 300 * time.Millisecond
	c.Submit(nil)
	time.Sleep(idle)
	c.Submit(nil)
	c.Close()
	if len(ev.batchD) != 1 || len(ev.legacy) != 1 {
		t.Fatalf("observer events = %d batch / %d legacy, want 1 each", len(ev.batchD), len(ev.legacy))
	}
	if d := ev.batchD[0]; d < 2*work || d >= idle {
		t.Errorf("batch observer duration = %v, want ≈ %v of handler time, not the %v the crossing stayed open", d, 2*work, idle)
	}
	if ev.legacy[0] != ev.batchD[0] {
		t.Errorf("legacy observer heard %v, batch observer %v", ev.legacy[0], ev.batchD[0])
	}
}

// TestCrossingConcurrentSubmitAndClose hammers one crossing from several
// goroutines while another closes it mid-flight (run under -race): every
// Submit either runs its handler or is refused as closed, the message
// count matches the handlers that ran, Close does not wait for handlers,
// and the accounting settles — pages returned, observers told once — when
// the last handler returns.
func TestCrossingConcurrentSubmitAndClose(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	var ran atomic.Int64
	e.Register("count", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		ran.Add(1)
		return in, nil
	})
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	baseline, _ := e.EPCUsage()
	ev := observe(e)
	c, err := e.OpenBatch("count")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 200
	var refused atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, _, err := c.Submit([]byte("m"))
				switch {
				case err == nil:
				case errors.Is(err, ErrCrossingClosed):
					refused.Add(1)
				default:
					t.Errorf("Submit: %v", err)
				}
				if i == each/2 {
					c.Close()
				}
			}
		}()
	}
	wg.Wait()
	if got := ran.Load() + refused.Load(); got != goroutines*each {
		t.Errorf("ran %d + refused %d = %d, want %d", ran.Load(), refused.Load(), got, goroutines*each)
	}
	if got := e.MessageCount(); got != uint64(ran.Load()) {
		t.Errorf("MessageCount = %d, want the %d handlers that ran", got, ran.Load())
	}
	if got := e.EcallCount(); got != 1 {
		t.Errorf("EcallCount = %d, want 1", got)
	}
	if used, _ := e.EPCUsage(); used != baseline {
		t.Errorf("EPC pages = %d, want %d", used, baseline)
	}
	if len(ev.batchN) != 1 || ev.batchN[0] != int(ran.Load()) {
		t.Errorf("batch observer = %v, want one event of %d messages", ev.batchN, ran.Load())
	}
}

// TestCrossingCloseDoesNotWaitForHandlers: Close returns while a message
// is still inside, and the accounting settles when that handler returns.
func TestCrossingCloseDoesNotWaitForHandlers(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	entered, release := make(chan struct{}), make(chan struct{})
	e.Register("block", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		close(entered)
		<-release
		return in, nil
	})
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	baseline, _ := e.EPCUsage()
	ev := observe(e)
	c, err := e.OpenBatch("block")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, herr, err := c.Submit(make([]byte, PageSize)); herr != nil || err != nil {
			t.Errorf("Submit: %v / %v", herr, err)
		}
	}()
	<-entered
	c.Close() // must not block on the handler
	if used, _ := e.EPCUsage(); used != baseline+1 {
		t.Errorf("EPC pages with a message still inside = %d, want %d", used, baseline+1)
	}
	close(release)
	<-done
	if used, _ := e.EPCUsage(); used != baseline {
		t.Errorf("EPC pages after the last handler = %d, want %d", used, baseline)
	}
	if len(ev.batchN) != 1 || ev.batchN[0] != 1 {
		t.Errorf("batch observer = %v, want one event of 1 message", ev.batchN)
	}
}

// TestReprovisionReleasesPreviousSecretPages: every rotation on a live
// enclave replaces the secret set; the EPC must end at one set's pages
// however many rotations ran. A Provision that kept the previous set
// charged would fail the second rotation on this budget.
func TestReprovisionReleasesPreviousSecretPages(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 4)
	set := func(fill byte) map[string][]byte {
		return map[string][]byte{"sk": bytes.Repeat([]byte{fill}, PageSize+1), "k": {fill}} // 2 + 1 pages
	}
	for i := 0; i < 20; i++ {
		if err := AttestAndProvision(as, e, Measure(uaIdentity), set(byte(i))); err != nil {
			t.Fatalf("provisioning %d: %v", i, err)
		}
		if used, _ := e.EPCUsage(); used != 3 {
			t.Fatalf("EPC pages after provisioning %d = %d, want 3 (one set)", i, used)
		}
	}
	// A set the EPC cannot hold is refused and the installed one stays.
	big := map[string][]byte{"sk": make([]byte, 5*PageSize)}
	if err := e.Provision(big); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("oversized set: err = %v, want ErrEPCExhausted", err)
	}
	e.Register("read", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		v, _ := s.Get("k")
		return v, nil
	})
	if out, err := e.Ecall("read", nil); err != nil || !bytes.Equal(out, []byte{19}) {
		t.Errorf("after a refused provisioning the enclave reads %v, %v; want the last installed set", out, err)
	}
	if used, _ := e.EPCUsage(); used != 3 {
		t.Errorf("EPC pages after a refused provisioning = %d, want 3", used)
	}
}

// TestDerivedSecretsBuiltOncePerProvisioning: the derived-object memo
// builds once per secret set however many handlers ask, concurrently or
// not, is dropped wholesale by the next Provision, and keeps no failure.
func TestDerivedSecretsBuiltOncePerProvisioning(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	var builds atomic.Int64
	build := func(raw []byte) (any, error) {
		builds.Add(1)
		if len(raw) == 0 {
			return nil, errors.New("unparsable")
		}
		return string(raw) + "-parsed", nil
	}
	e.Register("derive", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		v, err := s.Derived(string(in), build)
		if err != nil {
			return nil, err
		}
		return []byte(v.(string)), nil
	})
	provision := func(sk string) {
		t.Helper()
		if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"sk": []byte(sk), "bad": {}}); err != nil {
			t.Fatal(err)
		}
	}
	provision("one")

	ins := make([][]byte, 64)
	for i := range ins {
		ins[i] = []byte("sk")
	}
	outs, errs, err := e.CallBatch("derive", ins)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if errs[i] != nil || string(outs[i]) != "one-parsed" {
			t.Fatalf("message %d: %q, %v", i, outs[i], errs[i])
		}
	}
	if _, err := e.Ecall("derive", []byte("sk")); err != nil {
		t.Fatal(err)
	}
	// Concurrent first uses may each build; only one result is kept, and
	// nothing builds once it is.
	first := builds.Load()
	if first < 1 || first > int64(len(ins)) {
		t.Errorf("builds = %d", first)
	}
	if _, err := e.Ecall("derive", []byte("sk")); err != nil || builds.Load() != first {
		t.Errorf("memoised secret rebuilt: builds %d → %d (%v)", first, builds.Load(), err)
	}

	if _, err := e.Ecall("derive", []byte("absent")); !errors.Is(err, ErrNoSecret) {
		t.Errorf("missing secret: err = %v, want ErrNoSecret", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Ecall("derive", []byte("bad")); err == nil {
			t.Error("build failure not reported")
		}
	}
	if got := builds.Load() - first; got != 2 {
		t.Errorf("failed build attempted %d times in 2 calls, want 2 (failures are not kept)", got)
	}

	// Rotation, with a crossing open across it: the very next message
	// sees the new secret, and the old derived object is gone.
	c, err := e.OpenBatch("derive")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if out, herr, err := c.Submit([]byte("sk")); err != nil || herr != nil || string(out) != "one-parsed" {
		t.Fatalf("before rotation: %q, %v, %v", out, herr, err)
	}
	provision("two")
	if out, herr, err := c.Submit([]byte("sk")); err != nil || herr != nil || string(out) != "two-parsed" {
		t.Errorf("first message after rotation, on the crossing open across it: %q, %v, %v; want the new secret", out, herr, err)
	}
}
