package adversary_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
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
//  3. a rotation-scale re-pseudonymization scrubs the old pseudonym
//     space off the disk entirely: shard Replace compacts, so WALs
//     truncate and snapshots speak only the fresh keys, and loot from
//     the pre-rotation breach decrypts nothing that remains.

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
	st := newTappedStackEngine(t, km, 0, nil, engCfg)
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
	st := newTappedStackEngine(t, km, s, nil, engCfg)
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
		if acc > 0.4 {
			t.Errorf("shard %d tap accuracy = %.2f, want ≈ 1/S = %.3f", i, acc, 1.0/s)
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
	// Reference point: the network tap on the LRS link, already bounded
	// by the shuffle (TestTimingAttackDefeatedByShuffling) — the shard
	// taps must not beat it by more than noise.
	lrsAcc := adversary.Accuracy(adversary.CorrelateInOrder(edge, st.rec.Events("ia→lrs")), truth)
	t.Logf("LRS link tap accuracy %.3f (theory 1/S = %.3f)", lrsAcc, 1.0/s)
}

// TestRotationScrubsOldPseudonymsFromDisk: after the breach response
// re-pseudonymizes every shard, the old pseudonym space is gone from the
// tapped volume — WALs truncated by the shard Replace, snapshots speaking
// only fresh keys — and the adversary's pre-rotation loot decrypts
// nothing that remains.
func TestRotationScrubsOldPseudonymsFromDisk(t *testing.T) {
	eachKeyMaterial(t, testRotationScrubsOldPseudonymsFromDisk)
}

func testRotationScrubsOldPseudonymsFromDisk(t *testing.T, km keyMaterial) {
	dir := t.TempDir()
	engCfg := engine.DefaultConfig()
	engCfg.Shards = 3
	engCfg.WALDir = dir
	st := newTappedStackEngine(t, km, 0, nil, engCfg)
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

	res, err := rotation.RotateKeys(rotation.LayerUA, st.uaKeys, st.engine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrated != len(users) {
		t.Fatalf("rotation migrated %d pseudonyms, want %d", res.Migrated, len(users))
	}

	disk := diskBytes(t, dir)
	for u, p := range oldTruth {
		if bytes.Contains(disk, []byte(p)) {
			t.Errorf("pre-rotation pseudonym of %s still on disk after re-pseudonymization", u)
		}
	}
	for _, u := range users {
		if bytes.Contains(disk, []byte(u)) {
			t.Errorf("raw identifier %q on disk after rotation", u)
		}
		fresh, err := ppcrypto.Pseudonymize(res.Fresh.Permanent, u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(disk, []byte(message.Encode64(fresh))) {
			t.Errorf("fresh pseudonym of %s missing from disk — rotation did not persist", u)
		}
	}

	// The stolen key against the migrated database: zero users recovered.
	var db []adversary.DBEvent
	st.engine.ForEachEvent(func(d store.Document) {
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
