package proxy

import (
	"bytes"
	"testing"

	"pprox/internal/enclave"
)

// TestCallBatchEPCFallback: when a whole epoch's marshalling buffer
// cannot fit the EPC, the layer falls back to per-message crossings —
// slower, but the epoch completes — and counts the event.
func TestCallBatchEPCFallback(t *testing.T) {
	as, err := enclave.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform := enclave.NewPlatform(as)
	id := enclave.CodeIdentity{Name: "batch-unit", Version: "1.0"}
	e := platform.LaunchWithEPC(id, 4) // 4 pages: batches beyond 16 KiB overflow
	e.Register("echo", func(s enclave.Secrets, kv *enclave.KV, in []byte) ([]byte, error) {
		return in, nil
	})
	if err := enclave.AttestAndProvision(as, e, enclave.Measure(id), map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}

	l, err := New(Config{
		Role:        RoleUA,
		Next:        "http://ia",
		Enclave:     e,
		ShuffleSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ins := make([][]byte, 5)
	for i := range ins {
		ins[i] = bytes.Repeat([]byte{byte(i)}, enclave.PageSize)
	}
	outs, errs := l.callBatch("echo", ins)
	for i := range ins {
		if errs[i] != nil {
			t.Fatalf("fallback message %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], ins[i]) {
			t.Fatalf("fallback message %d corrupted", i)
		}
	}
	if got := l.BatchStats().EPCFallbacks; got != 1 {
		t.Errorf("EPCFallbacks = %d, want 1", got)
	}
	// The fallback ran per-message crossings: more than one, none batched.
	if got := e.EcallCount(); got != uint64(len(ins)) {
		t.Errorf("EcallCount = %d, want %d per-message crossings", got, len(ins))
	}
}
