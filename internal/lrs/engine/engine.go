// Package engine assembles the legacy recommendation system (LRS): a
// Universal-Recommender-style engine equivalent to the Harness deployment
// the PProx paper integrates with (§7). Feedback events are persisted in
// the sharded document store (the MongoDB substitute) as "inputs pending
// processing"; a batch training job (the Spark substitute) builds the CCO
// model; the model is served from the inverted index (the Elasticsearch
// substitute); and a REST front end exposes the post/get API that PProx
// proxies.
//
// The event log is split over a consistent-hash ring keyed by the *user
// pseudonym* — the engine shards blind ciphertexts, never identities —
// and each shard can be WAL-backed for durability. In incremental mode
// every accepted primary event is folded into the CCO counts online
// (cco.Incremental), and the next read rescores the rows it changed,
// demoting the batch job to a compaction fallback.
//
// The engine is agnostic to whether identifiers are cleartext or PProx
// pseudonyms — exactly the property that makes PProx transparent to an
// unmodified LRS.
package engine

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pprox/internal/lrs/cco"
	"pprox/internal/lrs/search"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/obslog"
)

// Config parameterizes the engine.
type Config struct {
	// DefaultN is the recommendation list size when a query does not
	// specify one; capped at message.MaxRecommendations.
	DefaultN int
	// MaxQueryHistory bounds how many recent user interactions form the
	// retrieval query.
	MaxQueryHistory int
	// MaxBlacklist bounds how many of the user's own items are excluded
	// from results (UR blacklists seen items by default).
	MaxBlacklist int
	// SecondaryBoost weights cross-indicator query clauses relative to
	// primary-indicator clauses (UR default: secondary events inform
	// but do not dominate).
	SecondaryBoost float64
	// Trainer bounds the CCO batch job and the incremental model alike.
	Trainer cco.Config
	// Shards splits the event log over a consistent-hash ring keyed by
	// the user pseudonym; values below 1 mean a single shard.
	Shards int
	// WALDir, when set, backs every shard with an append-only WAL plus
	// snapshot under this directory: an accepted post survives a process
	// crash (see WALSync for power-loss durability). Empty keeps the log
	// in memory, as before.
	WALDir string
	// WALSync fsyncs every WAL append before the post is acknowledged,
	// extending durability to OS crashes and power loss at the cost of a
	// disk flush per event. Ignored without WALDir.
	WALSync bool
	// Incremental folds each accepted primary event into the CCO counts
	// online, so retrieval stays fresh between batch trains and TrainNow
	// becomes the compaction fallback.
	Incremental bool
}

// DefaultConfig mirrors a stock Universal Recommender setup: a single
// in-memory shard, batch training only.
func DefaultConfig() Config {
	return Config{
		DefaultN:        message.MaxRecommendations,
		MaxQueryHistory: 20,
		MaxBlacklist:    100,
		SecondaryBoost:  0.5,
		Trainer:         cco.DefaultConfig(),
	}
}

// Engine is the LRS: event ingestion, training (batch or incremental),
// and query serving.
type Engine struct {
	cfg Config
	log *store.ShardedLog

	index atomic.Pointer[search.Index]
	model atomic.Pointer[served]
	inc   atomic.Pointer[cco.Incremental] // nil unless cfg.Incremental

	trainMu sync.Mutex  // serializes batch training jobs
	applyMu sync.Mutex  // orders log appends with incremental folds and rescores
	pending atomic.Bool // folded rows wait to be rescored; set and cleared under applyMu

	posts   atomic.Uint64
	queries atomic.Uint64
	trains  atomic.Uint64
	dups    atomic.Uint64
	fills   atomic.Uint64 // queries completed from the popularity ranking

	applied    atomic.Uint64 // events folded into the incremental model
	rescored   atomic.Uint64 // rows reads re-scored and patched into the index
	applyNanos atomic.Int64  // cumulative time spent folding and rescoring
	trainNanos atomic.Int64  // duration of the last batch train
	walErrs    atomic.Uint64 // posts rejected because the WAL append failed

	idem idemRegistry

	logger atomic.Pointer[slog.Logger]
}

// served is the model state the engine serves beside its index, as the
// last TrainNow or Refresh swapped it in.
type served struct {
	// Primary serves the cold-start popularity in batch mode. In
	// incremental mode it is nil: cco.Incremental holds the live counts
	// and the index the scored rows, so only the cross-indicator half is
	// kept, for every Refresh to write into its index again.
	*cco.MultiModel
	// users, items and rows size the primary model the index was built
	// from — its users, its items with a popularity, its items with an
	// indicator row — for ModelInfo.
	users, items, rows int
}

// SetLogger installs the engine's structured logger. Ingest records wrap
// the pseudonymized identifiers in obslog typed secrets, so even the
// already-opaque det_enc pseudonyms render as salted hashes — log lines
// can never be joined against the LRS database or a network capture.
// Nil disables logging.
func (e *Engine) SetLogger(l *slog.Logger) { e.logger.Store(l) }

func (e *Engine) slogger() *slog.Logger { return e.logger.Load() }

// idemRegistry remembers recently seen idempotency keys so a retried
// insertion (the proxy resent an event whose reply was lost) is dropped
// instead of double-counted. It is a FIFO window: retries arrive within
// seconds, the window holds the last idemWindow keys, and an unbounded
// map would be a memory leak with the same name. The ring grows with use
// up to idemWindow slots and then wraps, so an engine that sees few keyed
// posts holds few. The keys themselves are durable — each keyed event
// stores its key in its idem field — and recallIdemKeys refills the
// window from them on start-up.
type idemRegistry struct {
	mu   sync.Mutex
	seen map[string]struct{}
	ring []string
	next int
}

// idemWindow is how many recent keys the registry remembers.
const idemWindow = 1 << 16

// idemField is the event field a keyed post stores its idempotency key in.
// The key is minted by the enclave per post, not derived from any
// identifier, so storing it reveals nothing a pseudonym does not.
const idemField = "idem"

// claim records a key, reporting false when it was already seen. On
// success it returns the ring slot holding the key, so a caller whose
// insert then fails can release exactly the claim it made.
func (ir *idemRegistry) claim(key string) (slot int, ok bool) {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	if _, dup := ir.seen[key]; dup {
		return 0, false
	}
	if ir.seen == nil {
		ir.seen = make(map[string]struct{})
	}
	slot = ir.next
	if slot == len(ir.ring) {
		ir.ring = append(ir.ring, key)
	} else {
		if old := ir.ring[slot]; old != "" {
			delete(ir.seen, old)
		}
		ir.ring[slot] = key
	}
	ir.next = (slot + 1) % idemWindow
	ir.seen[key] = struct{}{}
	return slot, true
}

// release undoes a claim whose event was never stored (the WAL append
// failed), so the client's retry with the same key is accepted instead
// of dropped as a duplicate of an event that does not exist. The
// (key, slot) pair identifies the exact claim: if the slot was recycled
// or the key re-claimed in the meantime, release is a no-op.
func (ir *idemRegistry) release(key string, slot int) {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	if slot < 0 || slot >= len(ir.ring) || ir.ring[slot] != key {
		return
	}
	ir.ring[slot] = ""
	delete(ir.seen, key)
}

// Open creates an engine. With cfg.WALDir set the shards are opened from
// disk (snapshot load + WAL replay) and, when events were recovered, the
// model is rebuilt immediately so the engine serves from what it durably
// accepted before the crash.
func Open(cfg Config) (*Engine, error) {
	if cfg.DefaultN <= 0 || cfg.DefaultN > message.MaxRecommendations {
		cfg.DefaultN = message.MaxRecommendations
	}
	if cfg.MaxQueryHistory <= 0 {
		cfg.MaxQueryHistory = DefaultConfig().MaxQueryHistory
	}
	if cfg.MaxBlacklist < 0 {
		cfg.MaxBlacklist = 0
	}
	if cfg.SecondaryBoost <= 0 {
		cfg.SecondaryBoost = DefaultConfig().SecondaryBoost
	}
	lg, err := store.OpenShardedLog(store.ShardedConfig{
		Shards:      cfg.Shards,
		Dir:         cfg.WALDir,
		Sync:        cfg.WALSync,
		IndexFields: []string{"user"},
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, log: lg}
	e.index.Store(search.NewIndex())
	m := &cco.MultiModel{Cross: map[string]map[string][]cco.Correlation{}}
	if cfg.Incremental {
		e.inc.Store(cco.NewIncremental(cfg.Trainer))
	} else {
		m.Primary = &cco.Model{
			Indicators: map[string][]cco.Correlation{},
			Popularity: map[string]int{},
		}
	}
	e.model.Store(&served{MultiModel: m})
	if lg.Count() > 0 {
		e.recallIdemKeys()
		if err := e.TrainNow(); err != nil {
			lg.Close()
			return nil, err
		}
	}
	return e, nil
}

// New creates an engine with an empty model. It panics if the config
// cannot be opened — only possible with a WALDir, where callers should
// use Open and handle the error.
func New(cfg Config) *Engine {
	e, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	return e
}

// NewFromSnapshot restores an engine from a snapshot written by
// SaveSnapshot (either the flat v1 layout or the sharded v2 one; events
// are re-routed through the ring, so the shard count may differ from the
// writer's) — the restart-with-persisted-inputs path a MongoDB-backed
// Harness deployment has. The model is not persisted; run TrainNow after
// loading, exactly as Harness rebuilds its model from stored inputs.
func NewFromSnapshot(cfg Config, r io.Reader) (*Engine, error) {
	e, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.log.Restore(r); err != nil {
		e.log.Close()
		return nil, err
	}
	e.recallIdemKeys()
	return e, nil
}

// recallIdemKeys refills the idempotency window from the stored events,
// so a retry whose first delivery landed before a restart is still a
// duplicate after it. Each shard contributes its last idemWindow/shards
// keyed events in insertion order; together they fit the window, so no
// recalled key evicts another. An event lost to a torn WAL tail was never
// replayed, and its key is not recalled: the retry stores it.
func (e *Engine) recallIdemKeys() {
	n := e.log.NumShards()
	per := idemWindow / n
	for i := 0; i < n; i++ {
		var keys []string
		e.log.ScanShard(i, func(d store.Document) bool {
			if k := d.Fields[idemField]; k != "" {
				if len(keys) == 2*per {
					keys = append(keys[:0], keys[per:]...)
				}
				keys = append(keys, k)
			}
			return true
		})
		for _, k := range tail(keys, per) {
			e.idem.claim(k)
		}
	}
}

// Close releases the engine's storage (open WAL files) without
// compacting; use Compact first for a clean shutdown.
func (e *Engine) Close() error { return e.log.Close() }

// NumShards returns the event-log shard count.
func (e *Engine) NumShards() int { return e.log.NumShards() }

// Durable reports whether the event log is WAL-backed.
func (e *Engine) Durable() bool { return e.log.Durable() }

// Incremental reports whether per-event model maintenance is on.
func (e *Engine) Incremental() bool { return e.inc.Load() != nil }

// InsertEvent records primary-indicator feedback: user accessed item,
// with an optional payload (e.g. a rating) that collaborative filtering
// on access indicators stores but does not interpret.
func (e *Engine) InsertEvent(user, item, payload string) {
	e.InsertTypedEvent(user, item, payload, "")
}

// InsertTypedEvent records feedback with an explicit indicator type for
// Correlated Cross-Occurrence; the empty type is the primary indicator.
func (e *Engine) InsertTypedEvent(user, item, payload, eventType string) {
	e.InsertTypedEventIdem(user, item, payload, eventType, "")
}

// InsertTypedEventIdem records feedback carrying an idempotency key and
// reports (stored, err). A repeated key within the dedup window returns
// (false, nil) and stores nothing — the retried delivery of an event the
// store already has, which callers treat as success. The window survives
// a restart: the key is stored with the event and recalled on open. The
// empty key always stores (legacy clients and proxies without the
// feature). On a durable log a failed WAL append returns (false, err): an event the
// engine cannot make durable is not accepted, the idempotency key is
// released so a retry is not mistaken for a duplicate, and callers must
// surface the failure as retryable.
func (e *Engine) InsertTypedEventIdem(user, item, payload, eventType, idem string) (bool, error) {
	e.posts.Add(1)
	idemSlot := -1
	if idem != "" {
		slot, ok := e.idem.claim(idem)
		if !ok {
			e.dups.Add(1)
			if l := e.slogger(); l != nil {
				l.Debug("duplicate event dropped", "idem", idem)
			}
			return false, nil
		}
		idemSlot = slot
	}
	fields := map[string]string{
		"user":    user,
		"item":    item,
		"payload": payload,
		"type":    eventType,
	}
	if idem != "" {
		fields[idemField] = idem
	}

	// applyMu makes {append to log, fold into incremental model} one
	// ordered step: the store's per-user event order is exactly the order
	// the incremental counts saw, which is what keeps them convergent
	// with a batch retrain over the log. The rows the fold changed are
	// rescored by the next read (rescorePending), not here.
	e.applyMu.Lock()
	if _, insErr := e.log.Insert(fields); insErr != nil {
		e.applyMu.Unlock()
		if idem != "" {
			e.idem.release(idem, idemSlot)
		}
		e.walErrs.Add(1)
		if l := e.slogger(); l != nil {
			l.Error("event rejected: append failed", "err", insErr)
		}
		return false, insErr
	}
	e.foldLocked(user, item, eventType)
	e.applyMu.Unlock()

	if l := e.slogger(); l != nil {
		l.Debug("event ingested",
			"user", obslog.Pseudonym(user), "item", obslog.Pseudonym(item),
			"type", eventType)
	}
	return true, nil
}

// foldLocked folds one event's counts into the incremental model and
// flags its rows for the next read to rescore. Secondary-typed events
// only reach cross-occurrence at the next batch train (the online model
// maintains the primary indicator, which drives retrieval). Callers hold
// e.applyMu.
func (e *Engine) foldLocked(user, item, typ string) {
	inc := e.inc.Load()
	if inc == nil || typ != "" {
		return
	}
	start := time.Now()
	if inc.Fold(cco.Event{User: user, Item: item}) {
		e.pending.Store(true)
	}
	e.applied.Add(1)
	e.applyNanos.Add(time.Since(start).Nanoseconds())
}

// rescorePending scores, once each, the rows every post since the last
// read changed and patches them into the live index, so the read that
// follows searches them. A read with nothing pending never gets here.
func (e *Engine) rescorePending() {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	if !e.pending.Load() {
		return // an earlier read drained them while this one waited
	}
	start := time.Now()
	updates := e.inc.Load().Rescore()
	// Only the primary field changes: whatever cross-indicator fields
	// the last batch train put on a document stay.
	w := rowWriter{idx: e.index.Load()}
	for _, up := range updates {
		w.put(up.Item, primaryField, up.Indicators)
	}
	e.pending.Store(false)
	e.rescored.Add(uint64(len(updates)))
	e.applyNanos.Add(time.Since(start).Nanoseconds())
}

// primaryField is the index field holding an item's primary indicators.
const primaryField = "indicators"

// crossField names the index field holding cross-indicators of a type.
func crossField(typ string) string { return "indicators_" + typ }

// rowWriter writes indicator rows into an index the way the Universal
// Recommender lays out Elasticsearch documents: one document per item,
// its "id" self-field plus one field per indicator type. The index keeps
// term IDs, not the slices it is handed, so one term list and one
// document serve every row.
type rowWriter struct {
	idx   *search.Index
	terms []string
	doc   search.Doc
	self  [1]string
}

// put writes one item's row into the field: the item's document gains,
// changes or drops the field, is created for a row it lacks, and goes
// once nothing but its self-field is left.
func (w *rowWriter) put(item, field string, row []cco.Correlation) {
	w.terms = w.terms[:0]
	for _, c := range row {
		w.terms = append(w.terms, c.Item)
	}
	switch fields, indexed := w.idx.SetField(item, field, w.terms); {
	case !indexed && len(row) > 0:
		if w.doc.Fields == nil {
			w.doc.Fields = make(map[string][]string, 2)
		}
		clear(w.doc.Fields)
		w.self[0] = item
		w.doc.ID = item
		w.doc.Fields["id"] = w.self[:]
		w.doc.Fields[field] = w.terms
		w.idx.Put(w.doc)
	case indexed && fields <= 1:
		w.idx.Delete(item)
	}
}

// putCross writes every cross-indicator row of a batch train.
func (w *rowWriter) putCross(cross map[string]map[string][]cco.Correlation) {
	for typ, byItem := range cross {
		field := crossField(typ)
		for item, row := range byItem {
			w.put(item, field, row)
		}
	}
}

// DupEvents reports how many insertions were dropped as idempotent
// duplicates.
func (e *Engine) DupEvents() uint64 { return e.dups.Load() }

// PopularFills reports how many queries fell short of n search hits and
// were completed from the popularity ranking (the cold-start share).
func (e *Engine) PopularFills() uint64 { return e.fills.Load() }

// WALErrors reports how many posts were rejected by WAL append failures.
func (e *Engine) WALErrors() uint64 { return e.walErrs.Load() }

// EventsApplied reports how many events the incremental model has folded
// in.
func (e *Engine) EventsApplied() uint64 { return e.applied.Load() }

// RowsRescored reports how many indicator rows reads have re-scored. A
// row several posts touched before one read counts once; with a read
// after every post, divided by EventsApplied it is the rows an event
// touches — a property of the deployment's history lengths.
func (e *Engine) RowsRescored() uint64 { return e.rescored.Load() }

// ApplySeconds reports the cumulative time spent folding events into the
// incremental model and rescoring the rows they changed.
func (e *Engine) ApplySeconds() float64 {
	return time.Duration(e.applyNanos.Load()).Seconds()
}

// TrainSeconds reports the duration of the last batch training run.
func (e *Engine) TrainSeconds() float64 {
	return time.Duration(e.trainNanos.Load()).Seconds()
}

// EventCount returns the number of stored feedback events.
func (e *Engine) EventCount() int { return e.log.Count() }

// TrainNow runs the batch training job: it snapshots the event log in
// deterministic order, builds a fresh CCO model, and atomically swaps in
// a new index — the same periodic-rebuild lifecycle as Harness running
// Apache Spark (§7). In incremental mode it doubles as the compaction
// fallback: the online counts are reseeded from the same ordered stream,
// so batch and incremental state coincide exactly at every train.
// Queries keep being served from the previous model during training.
func (e *Engine) TrainNow() error {
	e.trainMu.Lock()
	defer e.trainMu.Unlock()
	// Block appends for the scan+reseed so the reseeded counts cover
	// precisely the scanned events — posts resume against the new state.
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	start := time.Now()

	events := make([]cco.TypedEvent, 0, e.log.Count())
	e.log.ScanOrdered(func(d store.Document) bool {
		events = append(events, cco.TypedEvent{
			User: d.Fields["user"],
			Item: d.Fields["item"],
			Type: d.Fields["type"],
		})
		return true
	})

	trained := cco.TrainMulti(events, e.cfg.Trainer)
	w := rowWriter{idx: search.NewIndex()}
	for item, row := range trained.Primary.Indicators {
		w.put(item, primaryField, row)
	}
	w.putCross(trained.Cross)
	model := &served{
		MultiModel: trained,
		users:      trained.Primary.Users,
		items:      len(trained.Primary.Popularity),
		rows:       len(trained.Primary.Indicators),
	}

	if e.inc.Load() != nil {
		// Counts only: the batch model above holds every row, scored, and
		// the index now holds them; the reseeded counts serve popularity.
		inc := cco.NewIncremental(e.cfg.Trainer)
		for _, ev := range events {
			if ev.Type == "" {
				inc.Fold(cco.Event{User: ev.User, Item: ev.Item})
			}
		}
		inc.DropPending()
		e.inc.Store(inc)
		e.pending.Store(false)
		model.MultiModel = &cco.MultiModel{Cross: trained.Cross}
	}

	e.model.Store(model)
	idx := w.idx
	e.index.Store(idx)
	e.trains.Add(1)
	e.trainNanos.Store(time.Since(start).Nanoseconds())
	if l := e.slogger(); l != nil {
		l.Info("model trained",
			"events", len(events), "items", idx.Len(),
			"duration_ms", time.Since(start).Milliseconds())
	}
	return nil
}

// Refresh re-scores every row of the incremental model straight into a
// fresh index and swaps it in, without re-reading the event log
// (cross-indicators keep their last batch state). It closes the gap
// online rescoring leaves open: rows whose pair counts never changed
// carry scores from an older population. Pending rows are among every
// row, so none is left for the next read. A no-op in batch mode.
func (e *Engine) Refresh() {
	if e.inc.Load() == nil {
		return
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	inc, cur := e.inc.Load(), e.model.Load()
	w := rowWriter{idx: search.NewIndex()}
	rows := 0
	inc.EachRow(func(item string, row []cco.Correlation) {
		w.put(item, primaryField, row)
		rows++
	})
	w.putCross(cur.Cross)
	users, items, _ := inc.Counts()
	e.model.Store(&served{MultiModel: cur.MultiModel, users: users, items: items, rows: rows})
	e.index.Store(w.idx)
	e.pending.Store(false)
}

// Compact folds the log into fresh batch state (TrainNow, which also
// reseeds the incremental counts) and then makes the current shard
// contents the durable baseline: snapshot written, WALs truncated.
func (e *Engine) Compact() error {
	if err := e.TrainNow(); err != nil {
		return err
	}
	return e.log.Compact()
}

// Recommend returns up to n item identifiers for the user, best first.
// The query model is the Universal Recommender's: the user's recent
// history items are OR-ed against every item's learned indicators; the
// user's own items are blacklisted; users without usable history receive
// the most popular items (cold start). In incremental mode a get that
// finds rows pending first rescores them (rescorePending), so it sees
// every post acked before it started; one with none pending reads one
// flag and takes no lock.
func (e *Engine) Recommend(user string, n int) []string {
	e.queries.Add(1)
	if n <= 0 || n > e.cfg.DefaultN {
		n = e.cfg.DefaultN
	}

	primary, byType := e.userHistory(user)
	if e.pending.Load() {
		e.rescorePending()
	}
	model := e.model.Load()
	idx := e.index.Load()

	var recs []string
	if len(primary) > 0 || len(byType) > 0 {
		q := search.Query{Size: n}
		for _, item := range tail(primary, e.cfg.MaxQueryHistory) {
			q.Should = append(q.Should, search.TermQuery{Field: primaryField, Term: item})
		}
		// Clauses are the order a score's floats are summed in, so the
		// types go in sorted order, not the map's.
		types := make([]string, 0, len(byType))
		for typ := range byType {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			for _, item := range tail(byType[typ], e.cfg.MaxQueryHistory) {
				q.Should = append(q.Should, search.TermQuery{
					Field: crossField(typ),
					Term:  item,
					Boost: e.cfg.SecondaryBoost,
				})
			}
		}
		// Only primary interactions blacklist an item: having *viewed*
		// something does not make recommending it wrong, having
		// accessed/bought it does.
		for _, item := range tail(primary, e.cfg.MaxBlacklist) {
			q.MustNot = append(q.MustNot, search.TermQuery{Field: "id", Term: item})
		}
		for _, hit := range idx.Search(q) {
			recs = append(recs, hit.ID)
		}
	}

	if len(recs) < n {
		// Cold-start popularity: live counts in incremental mode, the
		// last batch model otherwise.
		e.fills.Add(1)
		var popFn func([]string, int, map[string]bool) []string
		if inc := e.inc.Load(); inc != nil {
			popFn = inc.AppendPopular
		} else {
			popFn = model.Primary.AppendPopular
		}
		recs = fillWithPopular(recs, primary, popFn, n)
	}
	return recs
}

// tail returns the last k elements of s.
func tail(s []string, k int) []string {
	if len(s) > k {
		return s[len(s)-k:]
	}
	return s
}

// fillWithPopular completes a short result list with popular items the
// user has not seen and that are not already recommended: popFn walks the
// popularity ranking and stops at the n-th item.
func fillWithPopular(recs, history []string, popFn func([]string, int, map[string]bool) []string, n int) []string {
	taken := make(map[string]bool, len(recs)+len(history))
	for _, r := range recs {
		taken[r] = true
	}
	for _, h := range history {
		taken[h] = true
	}
	return popFn(recs, n, taken)
}

// userHistory returns the user's distinct primary-indicator items and a
// per-secondary-type history, each in insertion order. The lookup lands
// on the single shard owning the user pseudonym.
func (e *Engine) userHistory(user string) (primary []string, byType map[string][]string) {
	docs := e.log.FindBy("user", user)
	seen := make(map[[2]string]bool, len(docs))
	primary = make([]string, 0, len(docs))
	for _, d := range docs {
		item := d.Fields["item"]
		typ := d.Fields["type"]
		if item == "" || seen[[2]string{typ, item}] {
			continue
		}
		seen[[2]string{typ, item}] = true
		if typ == "" {
			primary = append(primary, item)
			continue
		}
		if byType == nil {
			byType = make(map[string][]string)
		}
		byType[typ] = append(byType[typ], item)
	}
	return primary, byType
}

// ForEachEvent visits every stored feedback event in deterministic shard
// order. It exists for operational observability and for the evaluation's
// verification that the database contains only pseudonymous identifiers
// (§6.1, cases 1c/2c model an adversary reading this very data).
func (e *Engine) ForEachEvent(fn func(store.Document)) {
	e.log.ScanOrdered(func(d store.Document) bool {
		fn(d)
		return true
	})
}

// Stats reports request counters: posts, queries, and completed training
// runs.
func (e *Engine) Stats() (posts, queries, trains uint64) {
	return e.posts.Load(), e.queries.Load(), e.trains.Load()
}

// SaveSnapshot persists the engine's durable state (the event log; the
// model is derived and rebuilt by TrainNow). The snapshot is the sharded
// v2 layout; NewFromSnapshot also accepts pre-sharding v1 files.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	return e.log.WriteSnapshot(w)
}

// SaveSnapshotFile persists the snapshot to path atomically (temp +
// fsync + rename): a crash mid-save leaves the previous snapshot intact.
func (e *Engine) SaveSnapshotFile(path string) error {
	e.applyMu.Lock()
	defer e.applyMu.Unlock()
	return e.log.WriteSnapshotFile(path)
}

// ModelInfo summarizes the served model for operational visibility: the
// size of the primary model the index was last built from, and in
// incremental mode the live counts beside it.
func (e *Engine) ModelInfo() string {
	m := e.model.Load()
	info := fmt.Sprintf("users=%d items=%d indicators=%d cross-types=%d",
		m.users, m.items, m.rows, len(m.Cross))
	if inc := e.inc.Load(); inc != nil {
		users, items, rows := inc.Counts()
		info += fmt.Sprintf(" incremental[users=%d items=%d rows=%d applied=%d]",
			users, items, rows, e.applied.Load())
	}
	return info
}
