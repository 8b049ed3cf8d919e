package enclave

import (
	"bytes"
	"errors"
	"testing"
)

// TestKVReplaceFailureKeepsOldValue is the regression test for the
// replace-path data loss: Put used to free and delete the old value
// before attempting the new allocation, so a replace failing under EPC
// pressure silently dropped the key.
func TestKVReplaceFailureKeepsOldValue(t *testing.T) {
	p, _ := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 2)
	kv := e.KV()

	old := []byte("pending-response")
	if err := kv.Put("h", old); err != nil {
		t.Fatal(err)
	}
	// The replacement needs 3 pages against a 2-page budget: it must
	// fail — and the original value must survive the failure.
	if err := kv.Put("h", make([]byte, 3*PageSize)); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("oversized replace: err=%v, want ErrEPCExhausted", err)
	}
	got, ok := kv.Get("h")
	if !ok {
		t.Fatal("failed replace dropped the existing key")
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("value after failed replace = %q, want %q", got, old)
	}
	if used, _ := e.EPCUsage(); used != 1 {
		t.Fatalf("EPC used = %d pages after failed replace, want 1", used)
	}
}

// TestKVReplaceChargesDelta checks that replacing a value charges only
// the page difference, both growing and shrinking.
func TestKVReplaceChargesDelta(t *testing.T) {
	p, _ := newTestPlatform(t)
	e := p.LaunchWithEPC(uaIdentity, 4)
	kv := e.KV()

	if err := kv.Put("h", make([]byte, PageSize/2)); err != nil { // 1 page
		t.Fatal(err)
	}
	if err := kv.Put("h", make([]byte, 3*PageSize)); err != nil { // grow to 4
		t.Fatalf("grow within budget: %v", err)
	}
	if used, _ := e.EPCUsage(); used != 4 {
		t.Fatalf("EPC used = %d after grow, want 4", used)
	}
	if err := kv.Put("h", []byte("small")); err != nil { // shrink to 1
		t.Fatal(err)
	}
	if used, _ := e.EPCUsage(); used != 1 {
		t.Fatalf("EPC used = %d after shrink, want 1", used)
	}
	// A same-size replace under a full budget must also succeed: the
	// delta is zero even though a fresh charge would not fit.
	if err := kv.Put("fill", make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("fill", make([]byte, 2*PageSize+1)); err != nil {
		t.Fatalf("same-page-count replace at full budget: %v", err)
	}
}

func TestKVDeleteReturnsFreedPages(t *testing.T) {
	p, _ := newTestPlatform(t)
	e := p.Launch(uaIdentity)
	kv := e.KV()

	if err := kv.Put("a", make([]byte, 2*PageSize)); err != nil {
		t.Fatal(err)
	}
	if n := kv.Delete("a"); n != 3 { // key + 2 pages of value, rounded up
		t.Fatalf("Delete freed %d pages, want 3", n)
	}
	if n := kv.Delete("a"); n != 0 {
		t.Fatalf("Delete of absent key freed %d pages, want 0", n)
	}
	if used, _ := e.EPCUsage(); used != 0 {
		t.Fatalf("EPC used = %d after delete, want 0", used)
	}
}
