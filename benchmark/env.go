package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	"pprox/internal/audit"
	"pprox/internal/client"
	"pprox/internal/cluster"
	"pprox/internal/lrs/cco"
	"pprox/internal/lrs/engine"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
	"pprox/internal/workload"
)

// requestTimeout bounds one request; a request that hits it counts as
// failed.
const requestTimeout = 10 * time.Second

// directConns bounds the connections of the workload that has no proxy.
// Through the proxy the protocol sets how many requests are outstanding (S
// per epoch); straight at the LRS two connections keep one slow post from
// holding up the gets behind it.
const directConns = 2

// Env is one workload deployed and ready to drive: the shipped raw
// configuration (Batch + Hopwire, S = 10, one UA and one IA, no modelled
// ECALL or stub delay) in process over the in-memory network.
type Env struct {
	w      Workload
	d      *cluster.Deployment
	client *client.Client
	tracer *Tracer // nil on untraced runs
	// ref is the host-speed probe (probe.go); Drive places its firings
	// between the bursts of the phase it drives.
	ref *Reference

	// users is the population gets draw from and posts the held-out
	// events; nextPost walks them so no event is posted twice.
	users    []string
	posts    []workload.Event
	nextPost int
	// seeded is the engine's event count after set-up.
	seeded int
	// stubItems is the list every stub get must return.
	stubItems []string
	walDir    string
}

// Setup deploys the workload: dataset generation, key generation,
// attestation and provisioning, node bring-up, seeding the engine and
// refreshing its model. Its duration is the setup_s metric. WAL files go
// under tmp.
func Setup(w Workload, seed int64, tracer *Tracer, tmp string) (e *Env, err error) {
	e = &Env{w: w, tracer: tracer}
	data := w.dataset(seed)

	spec := cluster.Spec{LRSFrontends: 1, UseStub: w.Stub}
	if w.Proxied {
		spec.ProxyEnabled, spec.UA, spec.IA = true, 1, 1
		spec.Encryption, spec.ItemPseudonyms = true, true
		spec.Shuffle, spec.ShuffleTimeout = shuffleSize, ShuffleTimeout
		spec.Batch, spec.Hopwire = true, true
		spec.Audit = &audit.Config{}
	}
	if !w.Stub {
		if e.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
			return nil, err
		}
		cfg := engine.DefaultConfig()
		// The lrs10x downsampling: per-user windows and correlator caps
		// are exercised on every insert at this cardinality.
		cfg.Trainer = cco.Config{MaxInteractionsPerUser: 20, MaxCorrelatorsPerItem: 30}
		spec.EngineConfig = &cfg
		spec.LRSShards, spec.LRSWALDir, spec.LRSIncremental = lrsShards, e.walDir, true
	}
	if tracer != nil {
		spec.NodeMiddleware = tracer.NodeMiddleware
	}
	if e.d, err = cluster.Deploy(spec); err != nil {
		os.RemoveAll(e.walDir)
		return nil, fmt.Errorf("deploy %s: %w", w.Name, err)
	}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()

	if w.Stub {
		for i := 0; i < message.MaxRecommendations; i++ {
			e.stubItems = append(e.stubItems, fmt.Sprintf("stub-item-%04d", i))
		}
	} else {
		events := data.Events[:w.SeedEvents]
		e.posts = data.Events[w.SeedEvents:]
		e.users = (&workload.Dataset{Events: events}).DistinctUsers()
		// Behind the proxy the engine only ever sees pseudonyms, so the
		// seed events go in under the layers' permanent keys.
		pseudoUser, pseudoItem := map[string]string{}, map[string]string{}
		for _, ev := range events {
			u, it := ev.User, ev.Item
			if w.Proxied {
				if u, err = pseudonym(pseudoUser, e.d.UAKeys.Permanent, ev.User); err != nil {
					return nil, err
				}
				if it, err = pseudonym(pseudoItem, e.d.IAKeys.Permanent, ev.Item); err != nil {
					return nil, err
				}
			}
			e.d.Engine.InsertEvent(u, it, ev.Rating)
		}
		e.d.Engine.Refresh()
		if e.seeded = e.d.Engine.EventCount(); e.seeded != len(events) {
			return nil, fmt.Errorf("seeding %s: engine holds %d of %d events", w.Name, e.seeded, len(events))
		}
	}

	hc := e.d.HTTPClient(requestTimeout)
	if !w.Proxied {
		hc.Transport.(*http.Transport).MaxConnsPerHost = directConns
	}
	if tracer != nil {
		hc.Transport = roundTripper{t: tracer, next: hc.Transport}
	}
	if w.Proxied {
		e.client = client.New(proxy.Bundle(e.d.UAKeys, e.d.IAKeys), hc, e.d.Entry)
	} else {
		e.client = client.NewPlain(hc, e.d.Entry)
	}
	return e, nil
}

// pseudonym is det_enc(key, id) as the layers render it on the wire,
// memoised per identifier.
func pseudonym(memo map[string]string, key []byte, id string) (string, error) {
	if p, ok := memo[id]; ok {
		return p, nil
	}
	raw, err := ppcrypto.Pseudonymize(key, id)
	if err != nil {
		return "", fmt.Errorf("pseudonymize: %w", err)
	}
	memo[id] = message.Encode64(raw)
	return memo[id], nil
}

// Close tears the deployment down and removes its WAL files.
func (e *Env) Close() {
	e.d.Close()
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

// expected is what a get for user must return right now: the engine's own
// answer for the identifier it knows the user by, mapped back to
// cleartext item names.
func (e *Env) expected(user string) ([]string, error) {
	if !e.w.Proxied {
		return e.d.Engine.Recommend(user, message.MaxRecommendations), nil
	}
	pu, err := pseudonym(map[string]string{}, e.d.UAKeys.Permanent, user)
	if err != nil {
		return nil, err
	}
	var items []string
	for _, p := range e.d.Engine.Recommend(pu, message.MaxRecommendations) {
		raw, err := message.Decode64(p)
		if err != nil {
			return nil, err
		}
		item, err := ppcrypto.Depseudonymize(e.d.IAKeys.Permanent, raw)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
	}
	return items, nil
}

// checkGet reports whether a get's reply is right. want, when set, is the
// exact list expected; otherwise the reply must be the stub's list, or a
// well-formed list of cleartext catalogue items (the engine's model moves
// under concurrent posts, so its exact answer is only pinned in Verify).
func (e *Env) checkGet(items, want []string) bool {
	switch {
	case want != nil:
		return len(items) == len(want) && (len(want) == 0 || reflect.DeepEqual(items, want))
	case e.w.Stub:
		return reflect.DeepEqual(items, e.stubItems)
	}
	if len(items) > message.MaxRecommendations {
		return false
	}
	for _, it := range items {
		if !strings.HasPrefix(it, "ml-movie-") {
			return false
		}
	}
	return true
}

// Verify checks, before any post, that 50 sampled users get through the
// deployed path exactly what the engine recommends for them; a wrong
// reply is a failed sample.
func (e *Env) Verify() ([]Sample, error) {
	if e.w.Stub {
		return nil, nil // every stub get is checked against the static list
	}
	var ops []Op
	want := map[string][]string{}
	for i := 0; i < 50; i++ {
		u := e.users[(i*len(e.users))/50]
		exp, err := e.expected(u)
		if err != nil {
			return nil, err
		}
		want[u] = append([]string{}, exp...) // non-nil: an empty list is pinned too
		burst := max(e.w.Burst, 1)
		ops = append(ops, Op{Due: time.Duration(i/burst) * e.w.Period, User: u})
	}
	return e.Drive(ops, want), nil
}

// Drive issues the schedule open loop — each request at its due time on
// its own goroutine, whatever became of the earlier ones — and returns
// one sample per request once all have finished. want pins exact replies
// by user (Verify); nil applies the workload's standing check.
func (e *Env) Drive(ops []Op, want map[string][]string) []Sample {
	samples := make([]Sample, len(ops))
	start := time.Now()
	if e.ref != nil {
		e.ref.Align(start)
	}
	var wg sync.WaitGroup
	for i := range ops {
		if d := time.Until(start.Add(ops[i].Due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(op Op, s *Sample) {
			defer wg.Done()
			e.issue(start, op, s, want[op.User])
		}(ops[i], &samples[i])
	}
	wg.Wait()
	return samples
}

func (e *Env) issue(start time.Time, op Op, s *Sample, want []string) {
	s.Post, s.Due = op.Post, op.Due
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if e.tracer != nil && e.tracer.on.Load() {
		s.Traced = true
		ctx = context.WithValue(ctx, callKey{}, s)
		s.CallStart = e.tracer.now()
	}
	s.Sent = time.Since(start)
	cpu0 := cpuTime()
	if op.Post {
		s.Failed = e.client.Post(ctx, op.User, op.Item, op.Rating) != nil
	} else {
		items, err := e.client.Get(ctx, op.User)
		s.Failed = err != nil || !e.checkGet(items, want)
	}
	s.Done = time.Since(start)
	s.Busy = cpuTime() - cpu0
	if s.Traced {
		s.CallEnd = e.tracer.now()
		call := e.tracer.add(spanClientCall, s.CallStart, s.CallEnd, -1)
		if s.HTTPEnd > 0 {
			e.tracer.add(spanClientHTTP, s.HTTPStart, s.HTTPEnd, call)
		}
	}
}

// Saturate runs a closed loop of gets for the given time — S clients in
// lock step through a proxy, so every epoch fills; one per connection
// straight at the LRS — and returns the goodput in requests per second.
// It is informational: on a shared host a saturating loop measures the
// neighbours as much as the code.
func (e *Env) Saturate(seed int64, length time.Duration) float64 {
	ops := make([]Op, shuffleSize)
	if !e.w.Proxied {
		ops = ops[:directConns]
	}
	rng := rand.New(rand.NewSource(seed))
	done := 0
	start := time.Now()
	for time.Since(start) < length {
		for i := range ops {
			ops[i].User = pickUser(rng, e.users)
		}
		for _, s := range e.Drive(ops, nil) {
			if !s.Failed {
				done++
			}
		}
	}
	return float64(done) / time.Since(start).Seconds()
}

// Audit checks what must hold at the end of every run beyond the replies
// themselves, and returns one message per broken invariant.
func (e *Env) Audit(postsOK int) []string {
	var broken []string
	if eng := e.d.Engine; eng != nil {
		if got, want := eng.EventCount(), e.seeded+postsOK; got != want {
			broken = append(broken, fmt.Sprintf("engine holds %d events, want %d (seeded %d + %d acknowledged posts)", got, want, e.seeded, postsOK))
		}
		if n := eng.WALErrors(); n != 0 {
			broken = append(broken, fmt.Sprintf("%d WAL append errors", n))
		}
	}
	if !e.w.Proxied {
		return broken
	}
	if st := e.d.Auditor.State(); st != audit.StateOK {
		broken = append(broken, "privacy auditor state is "+st.String())
	}
	if _, underfilled, _, _ := e.d.Auditor.Stats(); underfilled != 0 {
		broken = append(broken, fmt.Sprintf("%d under-filled shuffle epochs", underfilled))
	}
	for _, l := range append(e.d.UALayers, e.d.IALayers...) {
		if hw := l.Hopwire(); hw.Stats().Fallbacks != 0 {
			broken = append(broken, fmt.Sprintf("%d hopwire HTTP fallbacks", hw.Stats().Fallbacks))
		}
	}
	if bs := e.d.UALayers[0].BatchStats(); bs.Messages != bs.Batches*shuffleSize {
		broken = append(broken, fmt.Sprintf("UA forwarded %d messages in %d epochs, want %d per epoch", bs.Messages, bs.Batches, shuffleSize))
	}
	return broken
}
