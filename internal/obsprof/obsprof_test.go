package obsprof

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakePprof serves a minimal /debug/pprof tree.
func fakePprof(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("profile-bytes:" + r.URL.Path))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestDisabledWhenNoDir(t *testing.T) {
	h, err := New(Config{})
	if err != nil || h != nil {
		t.Fatalf("New with empty dir = (%v, %v), want (nil, nil)", h, err)
	}
	h.Trigger("x", epochOf(1), "ok", "warn") // nil-safe
	h.Wait()
	if got := h.Captures(); got != nil {
		t.Fatalf("nil harvester captures = %v", got)
	}
}

func TestTriggerCapturesFromHTTPSource(t *testing.T) {
	srv := fakePprof(t)
	dir := t.TempDir()
	clock := time.Unix(5000, 0)
	h, err := New(Config{
		Dir:        dir,
		Source:     srv.URL,
		CPUSeconds: 1,
		Cooldown:   time.Nanosecond,
		Now:        func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The exemplar is read once the profiles are on disk, so a breach
	// sampled while they were taken is the one meta.json names.
	epoch := func() uint64 {
		if caps := h.Captures(); len(caps) == 1 {
			if _, err := os.Stat(filepath.Join(caps[0], "goroutine.pprof")); err == nil {
				return 42
			}
		}
		return 0
	}
	h.Trigger("latency objective shuffle_wait on ua-0 violated", epoch, "ok", "violated")
	h.Wait()

	caps := h.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %v, want 1", caps)
	}
	if !strings.Contains(filepath.Base(caps[0]), "latency-objective-shuffle-wait") {
		t.Fatalf("capture dir %q missing reason slug", caps[0])
	}
	for _, f := range []string{"cpu.pprof", "heap.pprof", "goroutine.pprof", "meta.json"} {
		if _, err := os.Stat(filepath.Join(caps[0], f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(caps[0], "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 42 || meta.ToState != "violated" || len(meta.Profiles) != 3 {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestCooldownSuppressesRetrigger(t *testing.T) {
	srv := fakePprof(t)
	dir := t.TempDir()
	clock := time.Unix(5000, 0)
	h, err := New(Config{
		Dir:      dir,
		Source:   srv.URL,
		Cooldown: time.Hour,
		Now:      func() time.Time { return clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Trigger("first", epochOf(1), "ok", "warn")
	h.Wait()
	h.Trigger("second", epochOf(2), "warn", "violated") // within cooldown: dropped
	h.Wait()
	if caps := h.Captures(); len(caps) != 1 {
		t.Fatalf("captures = %v, want cooldown to drop the second", caps)
	}
}

func TestRingBoundsCaptures(t *testing.T) {
	srv := fakePprof(t)
	dir := t.TempDir()
	clock := time.Unix(5000, 0)
	h, err := New(Config{
		Dir:         dir,
		Source:      srv.URL,
		MaxCaptures: 2,
		Cooldown:    time.Nanosecond,
		Now: func() time.Time {
			clock = clock.Add(time.Minute)
			return clock
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.Trigger("burst", epochOf(uint64(i)), "ok", "warn")
		h.Wait()
	}
	caps := h.Captures()
	if len(caps) != 2 {
		t.Fatalf("ring holds %d captures, want 2: %v", len(caps), caps)
	}
	// The survivors are the two newest sequence numbers.
	for _, c := range caps {
		base := filepath.Base(c)
		if !strings.HasPrefix(base, "cap-00000") {
			t.Fatalf("unexpected capture name %q", base)
		}
		if base < "cap-000004" {
			t.Fatalf("old capture %q not pruned", base)
		}
	}
}

func TestLocalCaptureWithoutSource(t *testing.T) {
	dir := t.TempDir()
	h, err := New(Config{
		Dir:        dir,
		CPUSeconds: 1,
		Cooldown:   time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Trigger("local", epochOf(3), "ok", "warn")
	h.Wait()
	caps := h.Captures()
	if len(caps) != 1 {
		t.Fatalf("captures = %v", caps)
	}
	// heap and goroutine must always come out of the in-process path;
	// the CPU profile can fail if another test holds the profiler.
	for _, f := range []string{"heap.pprof", "goroutine.pprof", "meta.json"} {
		fi, err := os.Stat(filepath.Join(caps[0], f))
		if err != nil {
			t.Errorf("missing %s: %v", f, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

// epochOf is a fixed exemplar source.
func epochOf(n uint64) func() uint64 { return func() uint64 { return n } }
