package enclave

import (
	"fmt"
	"sync"
)

// KV is the in-enclave key-value store described in §5: "An in-memory
// key-value store in the EPC (Enclave Page Cache) holds the information
// necessary for handling requests responses on their way back from the
// LRS." Its memory is charged against the owning enclave's EPC budget, so
// a deployment that buffers too much pending-response state hits
// ErrEPCExhausted exactly as it would on real hardware.
type KV struct {
	owner *Enclave

	mu    sync.Mutex
	data  map[string][]byte
	pages map[string]int
}

func newKV(owner *Enclave) *KV {
	return &KV{
		owner: owner,
		data:  make(map[string][]byte),
		pages: make(map[string]int),
	}
}

// Put stores a value, charging EPC pages for it. Replacing a key charges
// only the page delta, and charges it *before* touching the old value: a
// replace that fails under EPC pressure leaves the existing entry intact
// instead of silently dropping it.
func (kv *KV) Put(key string, value []byte) error {
	need := pagesFor(len(key) + len(value))

	kv.mu.Lock()
	defer kv.mu.Unlock()
	old := kv.pages[key] // 0 when absent
	if need > old {
		if err := kv.owner.alloc(need - old); err != nil {
			return fmt.Errorf("kv put %q: %w", key, err)
		}
	} else if old > need {
		kv.owner.free(old - need)
	}
	kv.data[key] = append([]byte(nil), value...)
	kv.pages[key] = need
	return nil
}

// Get returns a copy of the stored value.
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Take returns the stored value and removes it, releasing its EPC charge.
// It is the common pattern for pending-response state: stored when the
// request passes through, consumed exactly once on the way back.
func (kv *KV) Take(key string) ([]byte, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.data[key]
	if !ok {
		return nil, false
	}
	kv.owner.free(kv.pages[key])
	delete(kv.data, key)
	delete(kv.pages, key)
	return v, true
}

// Delete removes a key and returns the EPC pages it releases. Deleting an
// absent key is a no-op returning 0.
func (kv *KV) Delete(key string) int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	p, ok := kv.pages[key]
	if !ok {
		return 0
	}
	kv.owner.free(p)
	delete(kv.data, key)
	delete(kv.pages, key)
	return p
}

// Len returns the number of stored entries.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.data)
}
