// Adversary: the paper's security analysis (§6) as a live demonstration.
//
// Deploys the full stack, then plays the adversary of §2.3: it reads the
// LRS database, intercepts messages, breaks into ONE enclave via a
// simulated side-channel attack, and mounts the timing-correlation attack
// — showing that user–interest unlinkability survives every §6.1 case,
// and exactly which defence stops each attack.
//
//	go run ./examples/adversary
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/cluster"
	"pprox/internal/lrs/store"
	"pprox/internal/message"
	"pprox/internal/ppcrypto"
	"pprox/internal/proxy"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	deployment, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		LRSFrontends: 1,
	})
	if err != nil {
		return err
	}
	defer deployment.Close()

	cl := deployment.Client(10 * time.Second)
	ctx := context.Background()

	fmt.Println("== users interact with the service ==")
	pairs := [][2]string{
		{"alice", "on-anxiety"},
		{"alice", "sleep-disorders-handbook"},
		{"bob", "on-anxiety"},
		{"carol", "cooking-for-one"},
	}
	for _, p := range pairs {
		if err := cl.Post(ctx, p[0], p[1], ""); err != nil {
			return err
		}
		fmt.Printf("  %s → %s\n", p[0], p[1])
	}

	var db []adversary.DBEvent
	deployment.Engine.ForEachEvent(func(d store.Document) {
		db = append(db, adversary.DBEvent{
			UserPseudonym: d.Fields["user"],
			ItemPseudonym: d.Fields["item"],
		})
	})

	fmt.Println("\n== adversary reads the LRS database (§2.3 ➋) ==")
	fmt.Printf("  sees %d rows of opaque pseudonyms, e.g. user=%.20s… item=%.20s…\n",
		len(db), db[0].UserPseudonym, db[0].ItemPseudonym)

	fmt.Println("\n== adversary breaks the UA enclave via side channels (§2.3 ➍) ==")
	uaLoot := adversary.Loot{UA: deployment.UALayers[0].Enclave().Compromise()}
	f := adversary.DeanonymizeDB(uaLoot, db)
	fmt.Printf("  de-pseudonymized %d users: it now knows WHO used the service\n", len(f.Users))
	fmt.Printf("  de-pseudonymized %d items — it cannot learn WHAT anyone read\n", len(f.Items))
	fmt.Printf("  linked (user, item) pairs: %d   ← user–interest unlinkability holds (§6.1 case 1c)\n", len(f.LinkedPairs))

	fmt.Println("\n== instead, the adversary breaks the IA enclave ==")
	iaLoot := adversary.Loot{IA: deployment.IALayers[0].Enclave().Compromise()}
	f = adversary.DeanonymizeDB(iaLoot, db)
	fmt.Printf("  de-pseudonymized %d items: it knows WHAT was read\n", len(f.Items))
	fmt.Printf("  de-pseudonymized %d users — it cannot learn BY WHOM\n", len(f.Users))
	fmt.Printf("  linked (user, item) pairs: %d   ← unlinkability holds (§6.1 case 2c)\n", len(f.LinkedPairs))

	fmt.Println("\n== intercepting a client message with UA loot (§6.1 case 1a) ==")
	captured, err := buildCapturedPost(deployment, "alice", "on-anxiety")
	if err != nil {
		return err
	}
	got := adversary.DecryptInterceptedPost(uaLoot, captured)
	fmt.Printf("  decrypted user: %q — item stays opaque: %q\n", got.User, got.Item)

	fmt.Println("\n== timing attack on the wire (§4.3 / §6.2) ==")
	for _, shuffle := range []int{0, 8} {
		acc, err := timingAttack(shuffle)
		if err != nil {
			return err
		}
		switch shuffle {
		case 0:
			fmt.Printf("  shuffling off: linking accuracy %.2f — the adversary wins on timing alone\n", acc)
		default:
			fmt.Printf("  shuffling S=%d: linking accuracy %.2f (theory 1/S = %.3f)\n", shuffle, acc, 1.0/float64(shuffle))
		}
	}
	fmt.Println("\nconclusion: no single broken enclave, database read, or traffic trace links a user to an interest.")
	return nil
}

// buildCapturedPost recreates the message the user-side library put on the
// wire, as a network adversary would capture it: each identifier sealed
// for its layer with the keys the deployment's bundle carries (two boxes
// under one ephemeral key, on the key material Deploy ships).
func buildCapturedPost(d *cluster.Deployment, user, item string) (message.PostRequest, error) {
	bundle := proxy.Bundle(d.UAKeys, d.IAKeys)
	userBlock, err := ppcrypto.PadID(user)
	if err != nil {
		return message.PostRequest{}, err
	}
	itemBlock, err := ppcrypto.PadID(item)
	if err != nil {
		return message.PostRequest{}, err
	}
	encUser, encItem, err := ppcrypto.SealPair(
		bundle.UAField(ppcrypto.RoleUAUser, userBlock), bundle.IAField(ppcrypto.RoleIAItem, itemBlock))
	if err != nil {
		return message.PostRequest{}, err
	}
	return message.PostRequest{
		EncUser: message.Encode64(encUser),
		EncItem: message.Encode64(encItem),
	}, nil
}

// timingAttack deploys a fresh stack with the adversary's tap on the LRS
// link and measures the in-order correlation attack's accuracy.
func timingAttack(shuffle int) (float64, error) {
	rec := adversary.NewRecorder()
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		Shuffle: shuffle, ShuffleTimeout: 150 * time.Millisecond,
		LRSFrontends: 1,
		LRSMiddleware: func(next http.Handler) http.Handler {
			return adversary.Tap(rec, "ia→lrs", func(body []byte) string {
				var req message.LRSPost
				if err := message.Unmarshal(body, &req); err == nil {
					return req.User
				}
				return ""
			}, next)
		},
	})
	if err != nil {
		return 0, err
	}
	defer d.Close()

	cl := d.Client(15 * time.Second)
	ctx := context.Background()

	const n = 32
	users := make([]string, n)
	var edge []adversary.Event
	truth := make(map[string]string, n)
	for i := range users {
		users[i] = fmt.Sprintf("victim-%02d", i)
		p, err := ppcrypto.Pseudonymize(d.UAKeys.Permanent, users[i])
		if err != nil {
			return 0, err
		}
		truth[users[i]] = message.Encode64(p)
	}

	if shuffle == 0 {
		for _, u := range users {
			edge = append(edge, adversary.Event{T: time.Now(), Label: u})
			if err := cl.Post(ctx, u, "sensitive", ""); err != nil {
				return 0, err
			}
		}
	} else {
		for b := 0; b < n/shuffle; b++ {
			var wg sync.WaitGroup
			for i := 0; i < shuffle; i++ {
				u := users[b*shuffle+i]
				edge = append(edge, adversary.Event{T: time.Now(), Label: u})
				wg.Add(1)
				go func(u string) {
					defer wg.Done()
					_ = cl.Post(ctx, u, "sensitive", "")
				}(u)
				time.Sleep(time.Millisecond)
			}
			wg.Wait()
		}
	}

	lrs := rec.Events("ia→lrs")
	guesses := adversary.CorrelateInOrder(edge, lrs)
	return adversary.Accuracy(guesses, truth), nil
}
