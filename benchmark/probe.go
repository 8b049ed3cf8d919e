package main

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark has to run steadily on is a shared one, and its
// speed is not one number: for stretches of tens of milliseconds the same
// instructions take ~1.55× as long (a burst of stub_get_burst costs 30 ms
// of CPU or 45 ms, a standard-library RSA decryption 1.15 ms or 1.8 ms,
// now and then 3.6 ms), and what share of the time is slow changes from
// minute to minute. So a run's timings depend on when it ran, by up to
// that factor.
//
// The reference divides the host's speed out. Beside the workload, on the
// same core, a goroutine performs a fixed piece of work once per slice —
// RSA-2048 OAEP decryptions by crypto/rsa, none of this repository's code
// — and times it on its thread's CPU clock. Every gated timing is reported
// at reference speed: the part of it during which the core was working is
// multiplied by refOpNominal ÷ (what one reference operation cost during
// the same phase). README.md ("Reference speed") has the evidence.
const (
	// refEvery and refOffset place the probe once per slice, in the idle
	// stretch after a burst (bursts are due at multiples of sliceLen from
	// the start of a phase and take 30–90 ms).
	refEvery  = sliceLen
	refOffset = 130 * time.Millisecond
	// One untimed operation first: the cost of the first one depends on
	// what the workload left in the caches, and it is the host's speed
	// that is wanted. Timing 2 cold operations per firing gave 1.65–2.2 ms
	// each and made cpu_ms_per_req noisier than leaving it alone; the
	// warm ones read 1.1–1.8 ms and track the workload within 3 %.
	refWarmOps  = 1
	refTimedOps = 4
	// refOpNominal is the cost of one reference operation at reference
	// speed. "ms" in a gated metric means: milliseconds on a core that
	// decrypts RSA-2048 OAEP in exactly this long.
	refOpNominal = time.Millisecond
)

// Reference is the running reference probe.
type Reference struct {
	key *rsa.PrivateKey
	ct  []byte
	// anchor is the instant (Unix ns) firings are placed relative to: the
	// start of the phase being driven.
	anchor atomic.Int64
	// spent is the CPU time the probe's thread has used, so that it can
	// be taken out of what the workload is charged.
	spent atomic.Int64

	mu   sync.Mutex
	ops  []time.Duration // CPU time of one timed operation, one entry per firing
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewReference generates the probe's key (outside every timed phase) and
// starts it.
func NewReference() (*Reference, error) {
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		return nil, err
	}
	ct, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, &key.PublicKey, make([]byte, 32), nil)
	if err != nil {
		return nil, err
	}
	r := &Reference{key: key, ct: ct, stop: make(chan struct{}), done: make(chan struct{})}
	r.Align(time.Now())
	go r.run()
	return r, nil
}

// Align places the following firings refOffset into every refEvery
// counted from start.
func (r *Reference) Align(start time.Time) { r.anchor.Store(start.UnixNano()) }

func (r *Reference) decrypt(n int) {
	for i := 0; i < n; i++ {
		if _, err := rsa.DecryptOAEP(sha256.New(), nil, r.key, r.ct, nil); err != nil {
			panic(err)
		}
	}
}

func (r *Reference) run() {
	defer close(r.done)
	// The goroutine keeps a thread to itself, so that thread's CPU clock
	// counts the probe's work and nothing else, however the scheduler
	// interleaves it with the workload.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before := threadCPUTime() // whatever the thread did until now was not the probe
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		since := time.Duration(time.Now().UnixNano() - r.anchor.Load())
		wait := refOffset - since%refEvery
		if wait <= 0 {
			wait += refEvery
		}
		timer.Reset(wait)
		select {
		case <-r.stop:
			return
		case <-timer.C:
		}
		r.decrypt(refWarmOps)
		c0 := threadCPUTime()
		r.decrypt(refTimedOps)
		c1 := threadCPUTime()
		r.spent.Store(int64(c1 - before))
		r.mu.Lock()
		r.ops = append(r.ops, (c1-c0)/refTimedOps)
		r.mu.Unlock()
	}
}

// threadCPUTime is the CPU time the calling thread has used.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// Close stops the probe and waits for it; its record stays readable.
func (r *Reference) Close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// Spent is the CPU time the probe's thread had used after its last firing.
func (r *Reference) Spent() time.Duration { return time.Duration(r.spent.Load()) }

// Mark returns a position in the probe's record; Firings(mark) are the
// readings after it.
func (r *Reference) Mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Speed is what one reference operation cost over a phase, as two centres.
// The slow stretches make the cost bimodal, and the two centres answer two
// questions: a total (CPU per request, a set-up) is a sum over fast and
// slow stretches alike, so it is rescaled by the mean; a typical latency
// is read off the middle of its distribution, so it is rescaled by the
// middle of the probe's.
type Speed struct {
	// Mean is the mean over the firings within 3× of the median (one that
	// a garbage collection ran into is not the host's speed).
	Mean time.Duration
	// Mid is the interquartile mean.
	Mid time.Duration
	N   int
}

// Firings returns the readings since mark, in order.
func (r *Reference) Firings(mark int) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.ops[mark:]...)
}

func summarise(firings []time.Duration) Speed {
	if len(firings) == 0 {
		return Speed{}
	}
	ops := append([]time.Duration(nil), firings...)
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	s := Speed{N: len(ops), Mid: interquartileMean(ops)}
	var sum time.Duration
	n := 0
	for _, d := range ops {
		if d <= 3*ops[len(ops)/2] {
			sum += d
			n++
		}
	}
	s.Mean = sum / time.Duration(n)
	return s
}

// interquartileMean is the mean of the middle half of the sorted samples
// (0 when there are none): as indifferent to the tails as a median, but it
// moves smoothly when a bimodal distribution's weight shifts from one mode
// to the other, where a median jumps.
func interquartileMean(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	mid := sorted[n/4 : n-n/4]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return sum / time.Duration(len(mid))
}

// atReference rescales a duration of which busy was spent with the core
// working: the working part is brought to reference speed, the rest — a
// shuffle epoch filling, an idle core, the hypervisor running someone else
// — is left as measured. refOp is what a reference operation cost over the
// same phase; when the probe never fired (a window shorter than refEvery)
// nothing is rescaled.
func atReference(wall, busy, refOp time.Duration) time.Duration {
	if refOp <= 0 {
		return wall
	}
	if busy > wall {
		busy = wall
	}
	if busy < 0 {
		busy = 0
	}
	return wall - busy + time.Duration(float64(busy)*float64(refOpNominal)/float64(refOp))
}
