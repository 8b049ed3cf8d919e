package adversary_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/rotation"
)

// shard_test.go extends the §2.3 ➋ adversary to the sharded, WAL-backed
// LRS: an adversary who taps a shard's disk — its write-ahead log and
// snapshot files — rather than the network link in front of the LRS. The
// claims under test:
//
//  1. shard storage carries det_enc pseudonyms only; no raw identifier
//     ever reaches the disk;
//  2. tapping shards (any of them, or all of them) yields no linking
//     advantage over the already-bounded LRS link tap: with shuffle
//     size S, timing correlation stays at the 1/S floor of §6.2 —
//     per-shard WAL order reveals strictly less than global arrival
//     order, which the shuffler already randomizes per epoch;
//  3. a rotation's replay into a fresh LRS leaves none of the old
//     pseudonym space on the fresh LRS's disk: its WALs speak only the
//     fresh keys, and loot from the pre-rotation breach decrypts nothing
//     the fresh LRS holds.

// readShardWAL parses one shard's WAL the way the adversary would: raw
// frames of [4B length LE][4B CRC][JSON {seq, fields}], no access to the
// store package's replay machinery needed.
func readShardWAL(t *testing.T, path string) []map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]string
	for len(b) >= 8 {
		n := binary.LittleEndian.Uint32(b[:4])
		if len(b) < int(8+n) {
			break // torn tail
		}
		var rec struct {
			Seq    uint64            `json:"seq"`
			Fields map[string]string `json:"fields"`
		}
		if err := json.Unmarshal(b[8:8+n], &rec); err != nil {
			break
		}
		out = append(out, rec.Fields)
		b = b[8+n:]
	}
	return out
}

// diskBytes concatenates every shard file under dir — the adversary's
// full view of the tapped volume.
func diskBytes(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

func TestShardStorageExposesOnlyPseudonyms(t *testing.T) {
	eachKeyMaterial(t, testShardStorageExposesOnlyPseudonyms)
}

func testShardStorageExposesOnlyPseudonyms(t *testing.T, km keyMaterial) {
	dir := t.TempDir()
	engCfg := engine.DefaultConfig()
	engCfg.Shards = 4
	engCfg.WALDir = dir
	st := newTappedStackEngine(t, km, 0, engCfg)
	ctx := context.Background()

	users := []string{"alice-reader", "bob-reader", "carol-reader"}
	items := []string{"war-and-peace", "anna-karenina", "crime-and-punishment"}
	for i, u := range users {
		for _, it := range items[:i+1] {
			if err := st.client.Post(ctx, u, it, "4.5"); err != nil {
				t.Fatal(err)
			}
		}
	}

	disk := diskBytes(t, dir)
	if len(disk) == 0 {
		t.Fatal("no WAL bytes on disk after posts")
	}
	for _, raw := range append(append([]string{}, users...), items...) {
		if bytes.Contains(disk, []byte(raw)) {
			t.Errorf("raw identifier %q appears in shard storage", raw)
		}
	}
	// Sanity that the tap looked at real data: the ground-truth user
	// pseudonyms (computable only with kUA) are present.
	for u, p := range st.truth(t, users) {
		if !bytes.Contains(disk, []byte(p)) {
			t.Errorf("pseudonym of %s missing from WAL bytes — tap misaimed", u)
		}
	}

	// Every WAL record field decrypts with the layer keys and only with
	// them: users under kUA, items under kIA — nothing identity-bearing
	// beyond the two pseudonym columns is persisted.
	records := 0
	for i := 0; i < engCfg.Shards; i++ {
		for _, fields := range readShardWAL(t, filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", i))) {
			records++
			raw, err := message.Decode64(fields["user"])
			if err != nil {
				t.Fatalf("user field is not a pseudonym: %v", err)
			}
			if _, err := ppcrypto.Depseudonymize(st.uaKeys.Permanent, raw); err != nil {
				t.Errorf("user pseudonym does not decrypt under kUA: %v", err)
			}
			rawItem, err := message.Decode64(fields["item"])
			if err != nil {
				t.Fatalf("item field is not a pseudonym: %v", err)
			}
			if _, err := ppcrypto.Depseudonymize(st.iaKeys.Permanent, rawItem); err != nil {
				t.Errorf("item pseudonym does not decrypt under kIA: %v", err)
			}
		}
	}
	if want := 1 + 2 + 3; records != want {
		t.Errorf("WAL taps saw %d records, want %d", records, want)
	}
}

// TestShardTapLinkingBoundedByShuffle: with shuffling at S, an adversary
// reading every shard's WAL in append order links sources to pseudonyms
// no better than 1/S — and no better than the network tap on the LRS
// link it is a degraded view of (WAL sequence numbers are per shard, so
// even the all-shards adversary cannot reconstruct global arrival order).
// A shard is judged on its own only when it holds enough appends that
// chance matches at 1/S exceed the bound with probability below
// shardFalseAlarm: random routing can leave a shard so few appends that
// two lucky matches already read 0.5.
func TestShardTapLinkingBoundedByShuffle(t *testing.T) {
	eachKeyMaterial(t, testShardTapLinkingBoundedByShuffle)
}

func testShardTapLinkingBoundedByShuffle(t *testing.T, km keyMaterial) {
	const s = 8
	const batches = 8
	dir := t.TempDir()
	engCfg := engine.DefaultConfig()
	engCfg.Shards = 4
	engCfg.WALDir = dir
	st := newTappedStackEngine(t, km, s, engCfg)
	ctx := context.Background()

	var users []string
	var edge []adversary.Event
	for b := 0; b < batches; b++ {
		var wg sync.WaitGroup
		for i := 0; i < s; i++ {
			u := fmt.Sprintf("victim-%d-%d", b, i)
			users = append(users, u)
			edge = append(edge, adversary.Event{T: time.Now(), Link: "client→ua", Label: u})
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				if err := st.client.Post(ctx, u, "sensitive-item", ""); err != nil {
					t.Errorf("post: %v", err)
				}
			}(u)
			time.Sleep(2 * time.Millisecond)
		}
		wg.Wait()
	}
	truth := st.truth(t, users)

	// Per-shard taps: each shard's WAL append order against the edge
	// arrival order.
	var merged []adversary.Event
	for i := 0; i < engCfg.Shards; i++ {
		var shardSeq []adversary.Event
		for _, fields := range readShardWAL(t, filepath.Join(dir, fmt.Sprintf("shard-%03d.wal", i))) {
			ev := adversary.Event{Label: fields["user"]}
			shardSeq = append(shardSeq, ev)
			merged = append(merged, ev)
		}
		if len(shardSeq) == 0 {
			continue
		}
		acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, shardSeq), truth)
		chance := chanceAbove(len(shardSeq), 1.0/s, 0.4)
		if chance > shardFalseAlarm {
			t.Logf("shard %d: %d appends, tap accuracy %.3f, not judged (chance alone exceeds 0.4 with probability %.2g)", i, len(shardSeq), acc, chance)
			continue
		}
		if acc > 0.4 {
			t.Errorf("shard %d tap accuracy = %.2f over %d appends, want ≈ 1/S = %.3f", i, acc, len(shardSeq), 1.0/s)
		}
		t.Logf("shard %d: %d appends, tap accuracy %.3f", i, len(shardSeq), acc)
	}
	if len(merged) != len(users) {
		t.Fatalf("shards persisted %d events, want %d", len(merged), len(users))
	}
	// The all-shards adversary: concatenated per-shard order is its best
	// reconstruction of the stream.
	if acc := adversary.Accuracy(adversary.CorrelateInOrder(edge, merged), truth); acc > 0.4 {
		t.Errorf("all-shards tap accuracy = %.2f, want ≈ 1/S = %.3f", acc, 1.0/s)
	}
	// Reference point: the network tap on the LRS link the shard taps are
	// a degraded view of, bounded by the shuffle as well
	// (TestTimingAttackDefeatedByShuffling).
	lrsAcc := adversary.Accuracy(adversary.CorrelateInOrder(edge, st.rec.Events("ia→lrs")), truth)
	if lrsAcc > 0.4 {
		t.Errorf("LRS link tap accuracy = %.2f, want ≈ 1/S = %.3f", lrsAcc, 1.0/s)
	}
	t.Logf("LRS link tap accuracy %.3f (theory 1/S = %.3f)", lrsAcc, 1.0/s)
}

// shardFalseAlarm bounds the probability that one shard of a correctly
// shuffled run fails the per-shard check by chance alone.
const shardFalseAlarm = 1e-3

// chanceAbove is the probability that a tap guessing n links, each right
// with probability p, reads an accuracy above bound: the binomial tail
// P(X/n > bound) for X ~ Bin(n, p), summed over the k the check counts.
func chanceAbove(n int, p, bound float64) float64 {
	tail := 0.0
	term := math.Pow(1-p, float64(n)) // P(X = 0)
	for k := 0; k <= n; k++ {
		if float64(k)/float64(n) > bound {
			tail += term
		}
		term *= float64(n-k) / float64(k+1) * p / (1 - p)
	}
	return tail
}

// TestChanceAboveIsTheBinomialTail pins chanceAbove to hand-computed
// tails at p = 1/8 and bound 0.4: one guess (0.125), four guesses where
// two matches already read 0.5 (1 − P(X ≤ 1) ≈ 0.0789), and 16 guesses
// needing 7 (≈ 1.941e-3).
func TestChanceAboveIsTheBinomialTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.125}, {4, 1 - math.Pow(7.0/8, 4) - 4*(1.0/8)*math.Pow(7.0/8, 3)}, {16, 1.940775e-3}} {
		if got := chanceAbove(c.n, 1.0/8, 0.4); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("chanceAbove(%d) = %.6g, want %.6g", c.n, got, c.want)
		}
	}
}

// TestRotationScrubsOldPseudonymsFromDisk: after the breach response
// replays the LRS into a fresh, WAL-backed one, the old pseudonym space is
// absent from the fresh LRS's volume — its WALs speak only fresh keys —
// and the adversary's pre-rotation loot decrypts nothing it holds.
func TestRotationScrubsOldPseudonymsFromDisk(t *testing.T) {
	eachKeyMaterial(t, testRotationScrubsOldPseudonymsFromDisk)
}

func testRotationScrubsOldPseudonymsFromDisk(t *testing.T, km keyMaterial) {
	engCfg := engine.DefaultConfig()
	engCfg.Shards = 3
	engCfg.WALDir = t.TempDir()
	st := newTappedStackEngine(t, km, 0, engCfg)
	ctx := context.Background()

	users := []string{"alice-reader", "bob-reader", "carol-reader", "dave-reader"}
	for i, u := range users {
		if err := st.client.Post(ctx, u, fmt.Sprintf("book-%d", i%2), ""); err != nil {
			t.Fatal(err)
		}
	}
	oldTruth := st.truth(t, users)
	// The breach: the adversary images the disk and compromises the UA
	// enclave, looting the permanent key that decrypts every stored user
	// pseudonym.
	loot := adversary.Loot{UA: st.uaEncl.Compromise()}

	dir := t.TempDir()
	engCfg.WALDir = dir
	fresh, err := engine.Open(engCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	srv := httptest.NewServer(engine.NewHandler(fresh))
	defer srv.Close()
	res, err := rotation.RotateKeys(rotation.LayerUA, st.uaKeys, st.iaKeys, st.engine.ForEachEvent, rotation.PostTo(srv.Client(), srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != len(users) {
		t.Fatalf("rotation replayed %d events, want %d", res.Replayed, len(users))
	}

	disk := diskBytes(t, dir)
	for u, p := range oldTruth {
		if bytes.Contains(disk, []byte(p)) {
			t.Errorf("pre-rotation pseudonym of %s on the fresh LRS's disk", u)
		}
	}
	for _, u := range users {
		if bytes.Contains(disk, []byte(u)) {
			t.Errorf("raw identifier %q on disk after rotation", u)
		}
		pseudo, err := ppcrypto.Pseudonymize(res.UA.Permanent, u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(disk, []byte(message.Encode64(pseudo))) {
			t.Errorf("fresh pseudonym of %s missing from disk — the replay did not persist", u)
		}
	}

	// The stolen key against the fresh LRS: zero users recovered.
	var db []adversary.DBEvent
	fresh.ForEachEvent(func(d store.Document) {
		db = append(db, adversary.DBEvent{
			UserPseudonym: d.Fields["user"],
			ItemPseudonym: d.Fields["item"],
		})
	})
	f := adversary.DeanonymizeDB(loot, db)
	if len(f.Users) != 0 || len(f.LinkedPairs) != 0 {
		t.Errorf("pre-rotation loot still de-anonymizes: %d users, %d links",
			len(f.Users), len(f.LinkedPairs))
	}
}
