package proxy

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pprox/internal/message"
)

// fakeIA is an IA stand-in answering every /batch frame with 200 per
// entry, echoing the frame's epoch; seen (may be nil) learns each frame's
// entry count before the answer is written.
func fakeIA(t *testing.T, seen func(entries int)) *httptest.Server {
	t.Helper()
	ia := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		epoch, entries, err := message.UnmarshalBatchEpoch(body)
		if r.URL.Path != message.BatchPath || err != nil {
			http.Error(w, "bad batch envelope", http.StatusBadRequest)
			return
		}
		if seen != nil {
			seen(len(entries))
		}
		for i := range entries {
			entries[i].Kind, entries[i].Status = "", http.StatusOK
		}
		out, _ := message.MarshalBatchEpoch(nil, epoch, entries)
		w.Write(out)
	}))
	t.Cleanup(ia.Close)
	return ia
}

// TestCloseResolvesEpochMidForward: Close joins every epoch it released —
// one already forwarding when Close begins and the partial one Close
// itself flushes — so every admitted request gets its answer before Close
// returns.
func TestCloseResolvesEpochMidForward(t *testing.T) {
	gate := make(chan struct{})
	arrived := make(chan int, 2)
	ia := fakeIA(t, func(n int) {
		arrived <- n
		<-gate
	})
	l, err := New(Config{Role: RoleUA, PassThrough: true, Next: ia.URL, ShuffleSize: 2, ShuffleTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	const admitted = 3 // one full epoch of 2, then 1 left pending
	var wg sync.WaitGroup
	statuses := make([]int, admitted)
	errs := make([]error, admitted)
	for i := 0; i < admitted; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _, errs[i] = l.admit(context.Background(), []byte(`{}`), true)
		}(i)
		if i == 1 {
			if n := <-arrived; n != 2 {
				t.Fatalf("first frame carried %d entries, want 2", n)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Shuffler().Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("third request never joined the shuffler")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	if n := <-arrived; n != 1 {
		t.Fatalf("Close's final frame carried %d entries, want 1", n)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while two epochs were still forwarding")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-closed
	wg.Wait()
	for i := range statuses {
		if errs[i] != nil || statuses[i] != http.StatusOK {
			t.Errorf("request %d: status %d, err %v", i, statuses[i], errs[i])
		}
	}
	if _, _, err := l.admit(context.Background(), []byte(`{}`), true); !errors.Is(err, ErrShufflerClosed) {
		t.Errorf("admit after Close: err = %v, want ErrShufflerClosed", err)
	}
}
