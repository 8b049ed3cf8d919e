package proxy

import (
	crand "crypto/rand"
	"errors"
	mrand "math/rand/v2"
	"sync"
	"time"
)

// ErrTableFull reports that the pending-request table T reached capacity;
// the server sheds the request rather than dropping it silently (§5: "the
// size of T should be larger than S in order to avoid dropping incoming
// requests between the reaching of the threshold and the processing of the
// requests").
var ErrTableFull = errors.New("proxy: pending-request table full")

// ErrShufflerClosed reports an Enqueue after Close: the shuffler is
// terminal on shutdown, so late arrivals fail fast instead of re-arming
// the flush timer and stranding themselves in a buffer nobody will flush.
var ErrShufflerClosed = errors.New("proxy: shuffler closed")

// Shuffler implements request/response shuffling (§4.3, Fig. 5): messages
// are buffered until S of them are pending — or until a timer expires —
// and then released in uniformly random order. An adversary observing the
// wire cannot map an individual incoming message to the corresponding
// outgoing one with probability better than 1/S.
//
// Messages only ever leave as whole epochs handed to the batch sink
// (SetBatchSink). A Shuffler of size 1 is the "shuffling off" configuration
// (m1–m4): every Enqueue flushes at once, so each message leaves as an
// epoch of one, in arrival order.
type Shuffler struct {
	size    int
	timeout time.Duration
	table   int // capacity of the pending table T

	mu      sync.Mutex
	pending []any
	timer   *time.Timer
	rng     *mrand.Rand
	flushes uint64
	sheds   uint64
	closed  bool

	// Observability hooks (SetHooks); both run under the shuffler lock.
	onEnqueue func(depth int)
	onFlush   func(batch int)
	// sink receives whole permuted epochs (SetBatchSink); it runs under
	// the shuffler lock.
	sink func(vals []any)
}

// NewShuffler creates a shuffler with buffer size S (values < 1 select 1),
// a flush timer, and a pending-table capacity (values ≤ 0 select the
// paper-faithful defaults: timeout 500 ms, table 4×S). Per §5 the table must be larger than S; a
// smaller table is honored as a hard cap and sheds the excess, which is
// exactly the drop behaviour the paper sizes T to avoid.
// The permutation stream is ChaCha8 seeded from crypto/rand. The seed must
// be unpredictable: an adversary who can reconstruct it (e.g. from a
// boot-time-based seed) can replay every permutation and undo the 1/S
// unlinkability bound entirely.
func NewShuffler(size int, timeout time.Duration, table int) *Shuffler {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// Without entropy the shuffler cannot meet its privacy contract;
		// refusing to start is the only safe behaviour.
		panic("proxy: seeding shuffler from crypto/rand: " + err.Error())
	}
	return NewShufflerSeeded(size, timeout, table, seed)
}

// NewShufflerSeeded is NewShuffler with a caller-chosen seed, for
// deterministic tests. Production code must use NewShuffler: a fixed or
// guessable seed makes every permutation reconstructable.
func NewShufflerSeeded(size int, timeout time.Duration, table int, seed [32]byte) *Shuffler {
	size = max(size, 1)
	if timeout <= 0 {
		timeout = 500 * time.Millisecond
	}
	if table <= 0 {
		table = 4 * size
	}
	return &Shuffler{
		size:    size,
		timeout: timeout,
		table:   table,
		rng:     mrand.New(mrand.NewChaCha8(seed)),
	}
}

// Size returns the shuffle buffer size S.
func (s *Shuffler) Size() int { return s.size }

// SetHooks installs observability callbacks: onEnqueue receives the
// pending-table depth after each successful enqueue, onFlush the size of
// each released batch (one flush = one shuffle epoch). Both run under the
// shuffler lock on the request path, so they must be cheap and lock-free
// (atomic counter increments and histogram observations qualify). Either
// may be nil. Safe on a nil shuffler.
func (s *Shuffler) SetHooks(onEnqueue func(depth int), onFlush func(batch int)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.onEnqueue = onEnqueue
	s.onFlush = onFlush
	s.mu.Unlock()
}

// SetBatchSink installs the epoch consumer: every flush hands the epoch's
// enqueued values, in the epoch's permuted order, to fn in one call. The
// sink runs under the shuffler lock on the flush path, so it must be cheap
// and non-blocking — starting the epoch's job qualifies, processing it
// inline does not. Safe on a nil shuffler.
func (s *Shuffler) SetBatchSink(fn func(vals []any)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sink = fn
	s.mu.Unlock()
}

// Enqueue admits one message into the current epoch: the value travels
// with the epoch and is handed to the batch sink, in permuted order, when
// the epoch flushes — on reaching S, on the timer, or on Close. It returns
// ErrTableFull when the pending table is at capacity and ErrShufflerClosed
// after Close. An admitted value always reaches the sink, whether or not
// whoever enqueued it is still waiting, so a departed caller's slot still
// advances the flush threshold.
func (s *Shuffler) Enqueue(v any) error {
	if s == nil {
		return errors.New("proxy: enqueue on a nil shuffler")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShufflerClosed
	}
	if s.sink == nil {
		return errors.New("proxy: enqueue without a batch sink")
	}
	if len(s.pending) >= s.table {
		s.sheds++
		return ErrTableFull
	}
	s.pending = append(s.pending, v)
	if s.onEnqueue != nil {
		s.onEnqueue(len(s.pending))
	}
	if len(s.pending) >= s.size {
		s.flushLocked()
	} else if s.timer == nil {
		s.timer = time.AfterFunc(s.timeout, s.onTimer)
	}
	return nil
}

func (s *Shuffler) onTimer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timer = nil
	if !s.closed && len(s.pending) > 0 {
		s.flushLocked()
	}
}

// flushLocked releases every pending message as one epoch, in uniformly
// random order, to the sink — so the wire order downstream follows the
// permutation.
func (s *Shuffler) flushLocked() {
	batch := s.pending
	s.pending = nil
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	s.sink(batch)
	s.flushes++
	if s.onFlush != nil {
		s.onFlush(len(batch))
	}
}

// ReleaseBatch accounts one whole inbound epoch of n messages — a batch
// envelope demultiplexed on the IA — as a shuffle flush and returns the
// permutation its releases must follow. The permutation draws on the same
// crypto-seeded stream as Enqueue flushes, and the flush hooks fire so the
// auditor, tracer, and cache see inbound epochs exactly like outbound
// ones. A nil shuffler (or S ≤ 1) returns the identity permutation and
// touches nothing.
func (s *Shuffler) ReleaseBatch(n int) ([]int, error) {
	if n < 0 {
		n = 0
	}
	if s == nil || s.size <= 1 || n == 0 {
		// An empty envelope is not an epoch: counting it would feed the
		// auditor a zero-size anonymity set. Only this degenerate branch
		// needs the identity permutation — the hot path below draws its
		// own from the rng, so building identity up front would be a
		// throwaway allocation on every batched epoch.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		return perm, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShufflerClosed
	}
	perm := s.rng.Perm(n)
	s.flushes++
	if s.onFlush != nil {
		s.onFlush(n)
	}
	return perm, nil
}

// Stats returns the number of completed flushes and shed messages.
func (s *Shuffler) Stats() (flushes, sheds uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushes, s.sheds
}

// Pending returns the number of currently buffered messages.
func (s *Shuffler) Pending() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Close releases any buffered messages immediately and makes the
// shuffler terminal: every later Enqueue/ReleaseBatch fails fast
// with ErrShufflerClosed instead of re-arming the flush timer and
// stranding itself during shutdown. Closing twice is a no-op.
func (s *Shuffler) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if len(s.pending) > 0 {
		s.flushLocked()
	} else if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
}
