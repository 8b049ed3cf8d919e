package proxy

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestShufflerDisabledIsImmediate: shuffling off is a shuffler of size 1
// (sizes below 1 select it), and every Enqueue flushes at once — each
// message leaves alone, as an epoch of one, in arrival order, without
// waiting for the timer.
func TestShufflerDisabledIsImmediate(t *testing.T) {
	for _, size := range []int{0, 1} {
		sh := NewShuffler(size, time.Hour, 0)
		if sh.Size() != 1 {
			t.Fatalf("NewShuffler(%d).Size() = %d, want 1", size, sh.Size())
		}
		var epochs [][]any
		sh.SetBatchSink(func(vals []any) { epochs = append(epochs, append([]any(nil), vals...)) })
		for i := 0; i < 5; i++ {
			if err := sh.Enqueue(i); err != nil {
				t.Fatalf("Enqueue: %v", err)
			}
			if len(epochs) != i+1 || sh.Pending() != 0 {
				t.Fatalf("S=%d: message %d not released at once (%d epochs, %d pending)", size, i, len(epochs), sh.Pending())
			}
		}
		for i, e := range epochs {
			if len(e) != 1 || e[0] != i {
				t.Fatalf("S=%d: epoch %d = %v, want [%d]", size, i, e, i)
			}
		}
		if flushes, _ := sh.Stats(); flushes != 5 {
			t.Errorf("S=%d: flushes = %d, want one per message", size, flushes)
		}
	}
}

// runBatch enqueues the values 0..n-1 in order and returns each value's
// release position, indexed by arrival index. Enqueue is synchronous and
// the sink runs inside the Enqueue that completes the epoch, so arrival
// order is exactly the loop order.
func runBatch(t *testing.T, sh *Shuffler, n int) []int {
	t.Helper()
	positions := make([]int, n)
	released := 0
	sh.SetBatchSink(func(vals []any) {
		for pos, v := range vals {
			positions[v.(int)] = pos
		}
		released += len(vals)
	})
	for i := 0; i < n; i++ {
		if err := sh.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	if released != n {
		t.Fatalf("released %d of %d messages", released, n)
	}
	return positions
}

func TestShufflerReleasesFullBatchWithPermutation(t *testing.T) {
	const s = 8
	sh := NewShuffler(s, time.Minute, 0)
	positions := runBatch(t, sh, s)

	// The positions must be a permutation of 0..s-1.
	sorted := append([]int(nil), positions...)
	sort.Ints(sorted)
	for i, p := range sorted {
		if p != i {
			t.Fatalf("positions %v are not a permutation", positions)
		}
	}
	flushes, sheds := sh.Stats()
	if flushes != 1 || sheds != 0 {
		t.Errorf("stats = %d flushes, %d sheds", flushes, sheds)
	}
}

func TestShufflerRandomizesOrder(t *testing.T) {
	// Across several batches, at least one must release in a
	// non-identity order (P[all identity] = (1/8!)^4 ≈ 0).
	const s = 8
	identityAlways := true
	for trial := 0; trial < 4 && identityAlways; trial++ {
		sh := NewShuffler(s, time.Minute, 0)
		positions := runBatch(t, sh, s)
		for i, p := range positions {
			if p != i {
				identityAlways = false
				break
			}
		}
	}
	if identityAlways {
		t.Error("every batch released in arrival order; shuffling is not randomizing")
	}
}

func TestShufflerTimerFlushesPartialBatch(t *testing.T) {
	sh := NewShuffler(10, 30*time.Millisecond, 0)
	released := make(chan struct{})
	sh.SetBatchSink(func([]any) { close(released) })
	start := time.Now()
	if err := sh.Enqueue(0); err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	<-released
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Errorf("released after %v, before the timer", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Errorf("released after %v, long after the timer", elapsed)
	}
}

func TestShufflerBlocksUntilBatchCompletes(t *testing.T) {
	sh := NewShuffler(2, time.Minute, 0)
	released := make(chan int, 2)
	sh.SetBatchSink(func(vals []any) { released <- len(vals) })
	if err := sh.Enqueue(0); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-released:
		t.Fatalf("first message released alone (epoch of %d)", n)
	case <-time.After(50 * time.Millisecond):
	}
	// Second message completes the epoch; both release together.
	if err := sh.Enqueue(1); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-released:
		if n != 2 {
			t.Fatalf("epoch of %d, want 2", n)
		}
	case <-time.After(time.Second):
		t.Fatal("epoch never released")
	}
}

func TestShufflerTableFullSheds(t *testing.T) {
	// §5: the table T must be sized larger than S, otherwise requests
	// drop. Misconfigure it deliberately (table 100 < size 200): the
	// flush threshold is never reached, the table saturates at 100, and
	// further arrivals shed with ErrTableFull.
	sh3 := NewShuffler(200, time.Minute, 100)
	released := 0
	sh3.SetBatchSink(func(vals []any) { released += len(vals) })
	shed := 0
	for i := 0; i < 150; i++ {
		switch err := sh3.Enqueue(i); {
		case err == nil:
		case errors.Is(err, ErrTableFull):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if sh3.Pending() != 100 {
		t.Fatalf("pending = %d, want the table's 100", sh3.Pending())
	}
	sh3.Close()
	if shed != 50 || released != 100 {
		t.Errorf("shed=%d released=%d, want 50/100", shed, released)
	}
	if _, sheds := sh3.Stats(); sheds != 50 {
		t.Errorf("Stats sheds = %d", sheds)
	}
}

// TestShufflerContextCancellation: a UA caller that gives up returns its
// context's error, and its message keeps its slot in the epoch.
func TestShufflerContextCancellation(t *testing.T) {
	l, err := New(Config{Role: RoleUA, PassThrough: true, Next: "http://ia", ShuffleSize: 10, ShuffleTimeout: time.Minute, Dialer: testDialer})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := l.admit(ctx, []byte(`{}`), true); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The abandoned slot still counts toward the next flush.
	if l.Shuffler().Pending() != 1 {
		t.Errorf("pending = %d, want 1", l.Shuffler().Pending())
	}
}

func TestShufflerCloseReleasesPending(t *testing.T) {
	sh := NewShuffler(10, time.Minute, 0)
	var released []any
	sh.SetBatchSink(func(vals []any) { released = append(released, vals...) })
	if err := sh.Enqueue("pending"); err != nil {
		t.Fatal(err)
	}
	sh.Close()
	if len(released) != 1 || released[0] != "pending" {
		t.Fatalf("Close released %v, want the pending message", released)
	}
	// Closing an idle or nil shuffler is a no-op.
	sh.Close()
	var nilSh *Shuffler
	nilSh.Close()
}

func TestShufflerSizeAccessor(t *testing.T) {
	if got := NewShuffler(7, 0, 0).Size(); got != 7 {
		t.Errorf("Size = %d", got)
	}
}

// TestShufflerSeedUnpredictable is the regression test for the predictable
// permutation bug: the shuffler used to seed math/rand with the boot
// timestamp, letting an adversary who recovers the start time replay every
// permutation. Two production shufflers must draw from independent streams,
// while the test-only seeded constructor must be reproducible.
func TestShufflerSeedUnpredictable(t *testing.T) {
	const s = 8
	seq := func(sh *Shuffler) []int {
		var out []int
		for b := 0; b < 4; b++ {
			out = append(out, runBatch(t, sh, s)...)
		}
		return out
	}
	equal := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	var seed [32]byte
	seed[0] = 42
	if !equal(seq(NewShufflerSeeded(s, time.Minute, 0, seed)),
		seq(NewShufflerSeeded(s, time.Minute, 0, seed))) {
		t.Error("seeded shuffler is not deterministic for a fixed seed")
	}

	// Back-to-back production shufflers: under correct crypto seeding the
	// streams collide with probability (1/8!)⁴ ≈ 0; under the old
	// time-based seeding, shufflers born in the same clock tick shared
	// the stream.
	if equal(seq(NewShuffler(s, time.Minute, 0)), seq(NewShuffler(s, time.Minute, 0))) {
		t.Error("two production shufflers produced identical permutation streams")
	}
}

// TestShufflerDepartedCallersAdvanceFlush covers the cancellation path: a
// UA caller that gives up leaves its message in the epoch, so later
// arrivals still reach the flush threshold instead of waiting for the
// timer, and the departed messages still travel in the epoch's frame.
func TestShufflerDepartedCallersAdvanceFlush(t *testing.T) {
	frames := make(chan int, 4)
	ia := fakeIA(t, func(n int) { frames <- n })
	l, err := New(Config{Role: RoleUA, PassThrough: true, Next: ia, ShuffleSize: 3, ShuffleTimeout: time.Minute, Dialer: testDialer})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := l.admit(ctx, []byte(`{}`), true); !errors.Is(err, context.Canceled) {
			t.Fatalf("admit with departed caller: err = %v", err)
		}
	}
	if l.Shuffler().Pending() != 2 {
		t.Fatalf("pending = %d after two departures, want 2", l.Shuffler().Pending())
	}
	// A third, live caller completes the epoch: it must be answered right
	// away (the timer is a minute out), out of the full 3-message frame.
	start := time.Now()
	status, _, err := l.admit(context.Background(), []byte(`{}`), true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("admit: status %d, err %v", status, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("live caller answered after %v; departed slots did not advance the flush", elapsed)
	}
	if n := <-frames; n != 3 {
		t.Errorf("frame carried %d entries, want 3", n)
	}
	if flushes, _ := l.Shuffler().Stats(); flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
}

// TestShufflerCloseTerminal: Close flushes the pending partial epoch to
// the sink, and is TERMINAL — later admissions fail fast with
// ErrShufflerClosed instead of parking in an epoch that will never flush
// (the pre-terminal behavior silently re-armed the timer and kept
// "serving" during shutdown, racing the HTTP server teardown).
func TestShufflerCloseTerminal(t *testing.T) {
	sh := NewShuffler(10, 30*time.Millisecond, 0)
	released := 0
	sh.SetBatchSink(func(vals []any) { released += len(vals) })
	if err := sh.Enqueue("early"); err != nil {
		t.Fatalf("Enqueue before Close: %v", err)
	}
	sh.Close()
	if released != 1 {
		t.Fatalf("Close released %d messages, want 1", released)
	}

	if err := sh.Enqueue("late"); !errors.Is(err, ErrShufflerClosed) {
		t.Fatalf("Enqueue after Close: err = %v, want ErrShufflerClosed", err)
	}
	if _, err := sh.ReleaseBatch(3); !errors.Is(err, ErrShufflerClosed) {
		t.Fatalf("ReleaseBatch after Close: err = %v, want ErrShufflerClosed", err)
	}
	sh.Close() // idempotent
	if released != 1 {
		t.Errorf("a message released after Close (%d total)", released)
	}
}

// TestShufflerCloseRace hammers Close against concurrent admissions:
// every Enqueue either fails fast (ErrShufflerClosed, ErrTableFull) or its
// value reaches the sink exactly once — none is stranded, none released
// twice.
func TestShufflerCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		sh := NewShuffler(4, time.Hour, 0)
		var mu sync.Mutex
		released := make(map[int]int)
		sh.SetBatchSink(func(vals []any) {
			mu.Lock()
			defer mu.Unlock()
			for _, v := range vals {
				released[v.(int)]++
			}
		})
		const senders = 32
		admitted := make([]bool, senders)
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				switch err := sh.Enqueue(i); {
				case err == nil:
					admitted[i] = true
				case errors.Is(err, ErrShufflerClosed), errors.Is(err, ErrTableFull):
				default:
					t.Errorf("round %d: unexpected Enqueue error: %v", round, err)
				}
			}(i)
		}
		runtime.Gosched()
		sh.Close()
		wg.Wait()
		mu.Lock()
		for i, ok := range admitted {
			if want := map[bool]int{true: 1}[ok]; released[i] != want {
				t.Fatalf("round %d: message %d admitted=%v released %d times", round, i, ok, released[i])
			}
		}
		mu.Unlock()
	}
}

// TestShufflerPermutationUniformity is a statistical check on the privacy
// mechanism itself (§6.2 assumes uniformly random release order): over
// many batches, arrival position i must land on release position j with
// frequency ≈ 1/S for every (i, j). A chi-square statistic over the S×S
// contingency table guards against a biased (e.g. off-by-one or
// swap-only) shuffle.
func TestShufflerPermutationUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const s = 6
	const batches = 600
	counts := make([][]int, s)
	for i := range counts {
		counts[i] = make([]int, s)
	}
	for b := 0; b < batches; b++ {
		sh := NewShuffler(s, time.Minute, 0)
		positions := runBatch(t, sh, s)
		for arrival, release := range positions {
			counts[arrival][release]++
		}
	}
	expected := float64(batches) / float64(s)
	chi2 := 0.0
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			d := float64(counts[i][j]) - expected
			chi2 += d * d / expected
		}
	}
	// Degrees of freedom (s-1)^2 = 25; the 99.9th percentile of chi2(25)
	// is ≈ 52.6. Using a generous 75 keeps the false-failure rate
	// negligible while still catching any structural bias.
	if chi2 > 75 {
		t.Errorf("shuffle permutation bias: chi² = %.1f over %d batches (counts %v)", chi2, batches, counts)
	}
}

// TestShufflerBatchSink: in batch-release mode a threshold flush hands
// the WHOLE epoch to the sink in one call, in the epoch's permuted order
// — a permutation of the enqueued values, not necessarily their arrival
// order.
func TestShufflerBatchSink(t *testing.T) {
	const s = 16
	var seed [32]byte
	seed[0] = 7
	sh := NewShufflerSeeded(s, time.Hour, 0, seed)
	var epochs [][]any
	sh.SetBatchSink(func(vals []any) {
		batch := make([]any, len(vals))
		copy(batch, vals)
		epochs = append(epochs, batch)
	})
	var flushHook int
	sh.SetHooks(nil, func(batch int) { flushHook = batch })

	for i := 0; i < s; i++ {
		if err := sh.Enqueue(i); err != nil {
			t.Fatalf("Enqueue(%d): %v", i, err)
		}
	}
	if len(epochs) != 1 {
		t.Fatalf("sink calls = %d, want 1 (one whole epoch)", len(epochs))
	}
	got := epochs[0]
	if len(got) != s {
		t.Fatalf("epoch size = %d, want %d", len(got), s)
	}
	seen := make(map[int]bool, s)
	identity := true
	for pos, v := range got {
		i := v.(int)
		if seen[i] {
			t.Fatalf("value %d released twice", i)
		}
		seen[i] = true
		if i != pos {
			identity = false
		}
	}
	if identity {
		t.Error("epoch released in arrival order: the sink must see the permutation")
	}
	if flushHook != s {
		t.Errorf("onFlush batch = %d, want %d", flushHook, s)
	}
	if flushes, _ := sh.Stats(); flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
}

// TestShufflerBatchTimerFlush: a partial epoch flushes to the sink on the
// timer, so batch mode cannot strand a quiet period's messages.
func TestShufflerBatchTimerFlush(t *testing.T) {
	sh := NewShuffler(64, 20*time.Millisecond, 0)
	got := make(chan int, 1)
	sh.SetBatchSink(func(vals []any) { got <- len(vals) })
	for i := 0; i < 3; i++ {
		if err := sh.Enqueue(i); err != nil {
			t.Fatalf("Enqueue: %v", err)
		}
	}
	select {
	case n := <-got:
		if n != 3 {
			t.Errorf("timer epoch size = %d, want 3", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never flushed the partial epoch to the sink")
	}
}

// TestShufflerReleaseBatch: an inbound batch epoch is accounted as one
// flush with a fresh permutation; empty and shuffling-off cases are
// identity without flush accounting.
func TestShufflerReleaseBatch(t *testing.T) {
	sh := NewShuffler(8, time.Hour, 0)
	var hookBatch int
	sh.SetHooks(nil, func(batch int) { hookBatch = batch })
	perm, err := sh.ReleaseBatch(6)
	if err != nil {
		t.Fatalf("ReleaseBatch: %v", err)
	}
	if len(perm) != 6 {
		t.Fatalf("perm length = %d, want 6", len(perm))
	}
	seen := make([]bool, 6)
	for _, p := range perm {
		if p < 0 || p >= 6 || seen[p] {
			t.Fatalf("perm = %v is not a permutation of 0..5", perm)
		}
		seen[p] = true
	}
	if flushes, _ := sh.Stats(); flushes != 1 {
		t.Errorf("flushes = %d, want 1", flushes)
	}
	if hookBatch != 6 {
		t.Errorf("onFlush batch = %d, want 6", hookBatch)
	}

	if perm, err := sh.ReleaseBatch(0); err != nil || len(perm) != 0 {
		t.Errorf("ReleaseBatch(0) = %v, %v; want empty identity", perm, err)
	}
	if flushes, _ := sh.Stats(); flushes != 1 {
		t.Error("an empty envelope must not count as a shuffle epoch")
	}

	var nilSh *Shuffler
	perm, err = nilSh.ReleaseBatch(3)
	if err != nil || len(perm) != 3 || perm[0] != 0 || perm[1] != 1 || perm[2] != 2 {
		t.Errorf("nil shuffler ReleaseBatch = %v, %v; want identity", perm, err)
	}
}

// Regression: ReleaseBatch built an identity permutation up front on
// every call and then discarded it on the hot path, where rng.Perm
// allocates the real one — a throwaway slice per batched epoch. The hot
// path must allocate exactly the permutation it returns.
func TestReleaseBatchHotPathAllocsOnce(t *testing.T) {
	s := NewShuffler(8, time.Minute, 0)
	defer s.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.ReleaseBatch(32); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ReleaseBatch(32) allocates %.0f objects/op, want 1 (rng.Perm only)", allocs)
	}

	// The degenerate branch still returns the identity permutation.
	var nilShuffler *Shuffler
	perm, err := nilShuffler.ReleaseBatch(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		if p != i {
			t.Fatalf("nil shuffler perm = %v, want identity", perm)
		}
	}
}
