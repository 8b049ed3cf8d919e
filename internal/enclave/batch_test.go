package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func newBatchEnclave(t *testing.T) *Enclave {
	t.Helper()
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	e.Register("upper", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		if bytes.Equal(in, []byte("boom")) {
			return nil, errors.New("handler refused")
		}
		return bytes.ToUpper(in), nil
	})
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatalf("provision: %v", err)
	}
	return e
}

// TestCallBatchOneCrossingManyMessages is the batching contract: N
// messages cost ONE enclave crossing (EcallCount) while the message
// counter advances by N.
func TestCallBatchOneCrossingManyMessages(t *testing.T) {
	e := newBatchEnclave(t)
	ins := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	outs, errs, err := e.CallBatch("upper", ins)
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	if len(outs) != 3 || len(errs) != 3 {
		t.Fatalf("outs=%d errs=%d, want 3 each", len(outs), len(errs))
	}
	for i, want := range []string{"A", "B", "C"} {
		if errs[i] != nil || string(outs[i]) != want {
			t.Errorf("entry %d: out=%q err=%v, want %q", i, outs[i], errs[i], want)
		}
	}
	if got := e.EcallCount(); got != 1 {
		t.Errorf("EcallCount = %d, want 1 (one crossing)", got)
	}
	if got := e.MessageCount(); got != 3 {
		t.Errorf("MessageCount = %d, want 3", got)
	}

	// A per-message Ecall advances both counters by one.
	if _, err := e.Ecall("upper", []byte("d")); err != nil {
		t.Fatalf("Ecall: %v", err)
	}
	if got := e.EcallCount(); got != 2 {
		t.Errorf("EcallCount after Ecall = %d, want 2", got)
	}
	if got := e.MessageCount(); got != 4 {
		t.Errorf("MessageCount after Ecall = %d, want 4", got)
	}
}

// TestCallBatchPerMessageErrors: one poisoned message fails alone; its
// batch-mates still process in the same crossing.
func TestCallBatchPerMessageErrors(t *testing.T) {
	e := newBatchEnclave(t)
	outs, errs, err := e.CallBatch("upper", [][]byte{[]byte("ok"), []byte("boom"), []byte("ok2")})
	if err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy entries failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Error("poisoned entry: err = nil, want the handler's error")
	}
	if string(outs[0]) != "OK" || string(outs[2]) != "OK2" {
		t.Errorf("outs = %q, %q", outs[0], outs[2])
	}
	if got := e.EcallCount(); got != 1 {
		t.Errorf("EcallCount = %d, want 1", got)
	}
}

// TestCallBatchEPCAccounting: the crossing charges EPC for the whole
// marshalled batch and releases it afterwards; a batch larger than the
// EPC fails as a crossing (ErrEPCExhausted), counting nothing.
func TestCallBatchEPCAccounting(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 4) // 4 pages = 16 KiB
	var observedUsed atomic.Int64       // the batch's handlers run concurrently
	e.Register("probe", func(s Secrets, kv *KV, in []byte) ([]byte, error) {
		used, _ := e.EPCUsage()
		observedUsed.Store(int64(used))
		return in, nil
	})
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatalf("provision: %v", err)
	}

	baseline, _ := e.EPCUsage() // provisioned secrets hold resident pages

	// 2 messages × 4 KiB = 2 pages charged during the crossing.
	ins := [][]byte{make([]byte, PageSize), make([]byte, PageSize)}
	if _, _, err := e.CallBatch("probe", ins); err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	if got := int(observedUsed.Load()); got < baseline+2 {
		t.Errorf("EPC pages used during crossing = %d, want ≥ %d", got, baseline+2)
	}
	if used, _ := e.EPCUsage(); used != baseline {
		t.Errorf("EPC pages used after crossing = %d, want %d (released)", used, baseline)
	}

	// 5 pages of input cannot fit a 4-page EPC: crossing-level failure.
	big := [][]byte{make([]byte, 5*PageSize)}
	_, _, err := e.CallBatch("probe", big)
	if !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("oversized batch: err = %v, want ErrEPCExhausted", err)
	}
	if got := e.EcallCount(); got != 1 {
		t.Errorf("EcallCount = %d, want 1 (failed crossing uncounted)", got)
	}
}

// TestCallBatchObservers: the legacy ECALL observer sees ONE event per
// crossing and the batch observer sees the message count, so dashboards
// can compute the amortization ratio.
func TestCallBatchObservers(t *testing.T) {
	e := newBatchEnclave(t)
	var legacy, batchEvents, batchN int
	e.SetEcallObserver(func(name string, d time.Duration, err error) { legacy++ })
	e.SetBatchObserver(func(name string, n int, d time.Duration) {
		batchEvents++
		batchN = n
		if name != "upper" {
			t.Errorf("batch observer name = %q", name)
		}
	})
	ins := make([][]byte, 7)
	for i := range ins {
		ins[i] = []byte(fmt.Sprintf("m%d", i))
	}
	if _, _, err := e.CallBatch("upper", ins); err != nil {
		t.Fatalf("CallBatch: %v", err)
	}
	if legacy != 1 {
		t.Errorf("legacy observer events = %d, want 1", legacy)
	}
	if batchEvents != 1 || batchN != 7 {
		t.Errorf("batch observer: events=%d n=%d, want 1/7", batchEvents, batchN)
	}
}

// TestCallBatchGuards: unknown entry points and unprovisioned enclaves
// fail the whole crossing, and the empty batch is a no-op.
func TestCallBatchGuards(t *testing.T) {
	p, as := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	e.Register("noop", func(s Secrets, kv *KV, in []byte) ([]byte, error) { return in, nil })
	if _, _, err := e.CallBatch("noop", [][]byte{[]byte("x")}); !errors.Is(err, ErrNotProvisioned) {
		t.Errorf("unprovisioned: err = %v, want ErrNotProvisioned", err)
	}
	if err := AttestAndProvision(as, e, Measure(uaIdentity), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatalf("provision: %v", err)
	}
	if _, _, err := e.CallBatch("nope", [][]byte{[]byte("x")}); !errors.Is(err, ErrUnknownEcall) {
		t.Errorf("unknown entry point: err = %v, want ErrUnknownEcall", err)
	}
	outs, errs, err := e.CallBatch("noop", nil)
	if outs != nil || errs != nil || err != nil {
		t.Errorf("empty batch: %v %v %v, want all nil", outs, errs, err)
	}
	if got := e.EcallCount(); got != 0 {
		t.Errorf("EcallCount = %d, want 0", got)
	}
}

// TestTransitionCostPaidPerCrossing: the modeled world-switch cost is
// charged once per crossing — N per-message ECALLs pay it N times, one
// batched crossing carrying N messages pays it once — and zero (the
// default) keeps crossings free.
func TestTransitionCostPaidPerCrossing(t *testing.T) {
	e := newBatchEnclave(t)
	const cost = 2 * time.Millisecond
	e.SetTransitionCost(cost)

	start := time.Now()
	if _, err := e.Ecall("upper", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < cost {
		t.Errorf("Ecall crossing took %v, want ≥ %v", d, cost)
	}

	ins := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	start = time.Now()
	if _, _, err := e.CallBatch("upper", ins); err != nil {
		t.Fatal(err)
	}
	d := time.Since(start)
	if d < cost {
		t.Errorf("batched crossing took %v, want ≥ %v", d, cost)
	}
	if d >= time.Duration(len(ins))*cost {
		t.Errorf("batched crossing took %v: cost charged per message, want once per crossing", d)
	}

	e.SetTransitionCost(0)
	start = time.Now()
	if _, err := e.Ecall("upper", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= cost {
		t.Errorf("free crossing took %v after reset", d)
	}
}
