// Breach: the full incident-response loop of §2.3 (footnote 1).
//
// An adversary mounts a side-channel attack against the UA enclave and
// steals its keys; the breach detector (à la Déjà Vu/Varys) notices; the
// automatic responder generates fresh keys and replays the LRS database,
// re-keyed, into a fresh LRS; the stolen keys become useless — while every
// user profile survives the rotation intact.
//
//	go run ./examples/breach
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"slices"
	"time"

	"pprox/internal/adversary"
	"pprox/internal/cluster"
	"pprox/internal/enclave"
	"pprox/internal/lrs/engine"
	"pprox/internal/lrs/store"
	"pprox/internal/rotation"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	d, err := cluster.Deploy(cluster.Spec{
		ProxyEnabled: true, UA: 1, IA: 1,
		Encryption: true, ItemPseudonyms: true,
		LRSFrontends: 1,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	cl := d.Client(10 * time.Second)
	ctx := context.Background()

	fmt.Println("== normal operation ==")
	for i := 0; i < 10; i++ {
		u := fmt.Sprintf("reader-%02d", i)
		for _, b := range []string{"dune", "foundation"} {
			if err := cl.Post(ctx, u, b, ""); err != nil {
				return err
			}
		}
	}
	for i := 0; i < 5; i++ {
		if err := cl.Post(ctx, fmt.Sprintf("other-%d", i), "cookbook", ""); err != nil {
			return err
		}
	}
	if err := cl.Post(ctx, "probe", "dune", ""); err != nil {
		return err
	}
	if err := d.Engine.TrainNow(); err != nil {
		return err
	}
	fmt.Printf("LRS serving recommendations; %d pseudonymized events stored\n", d.Engine.EventCount())

	// Arm the breach detector with the automatic responder. Its rotation
	// is the offline procedure: the deployment is drained (this demo
	// sends nothing while it runs), the LRS's events are replayed into a
	// fresh, empty LRS under fresh keys, and fresh enclaves would then be
	// provisioned with them.
	fresh, err := engine.Open(engine.DefaultConfig())
	if err != nil {
		return err
	}
	defer fresh.Close()
	freshLRS := httptest.NewServer(engine.NewHandler(fresh))
	defer freshLRS.Close()
	rotated := make(chan *rotation.Result, 1)
	responder := rotation.NewResponder(func(layer rotation.Layer) error {
		res, err := rotation.RotateKeys(layer, d.UAKeys, d.IAKeys, d.Engine.ForEachEvent,
			rotation.PostTo(freshLRS.Client(), freshLRS.URL))
		if err != nil {
			return err
		}
		rotated <- res
		return nil
	}, func(err error) { log.Printf("responder error: %v", err) })
	detector := enclave.NewBreachDetector(200*time.Millisecond, responder.Countermeasure)
	defer detector.Stop()
	uaEnclave := d.UALayers[0].Enclave()
	uaEnclave.Platform().SetBreachDetector(detector)

	fmt.Println("\n== side-channel attack: UA enclave secrets leak (§2.3 ➍) ==")
	loot := adversary.Loot{UA: uaEnclave.Compromise()}
	before := adversary.DeanonymizeDB(loot, dbEvents(d.Engine))
	fmt.Printf("adversary de-pseudonymizes %d users with the stolen kUA\n", len(before.Users))

	fmt.Println("\n== breach detector fires; responder rotates keys and replays the database into a fresh LRS ==")
	var res *rotation.Result
	select {
	case res = <-rotated:
		fmt.Printf("rotated %v layer: %d events replayed under fresh keys\n", res.Layer, res.Replayed)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("responder never fired")
	}

	after := adversary.DeanonymizeDB(loot, dbEvents(fresh))
	fmt.Printf("\nadversary tries the stolen keys on the fresh LRS: %d users decrypted — the loot is dead\n", len(after.Users))

	// Profiles survived: the fresh LRS knows probe's history under the
	// fresh pseudonym and recommends what the old one did.
	if err := fresh.TrainNow(); err != nil {
		return err
	}
	oldProbe, err := d.UAKeys.PseudonymizeItems([]string{"probe"})
	if err != nil {
		return err
	}
	freshProbe, err := res.UA.PseudonymizeItems([]string{"probe"})
	if err != nil {
		return err
	}
	recs := fresh.Recommend(freshProbe[0], 3)
	fmt.Printf("probe's profile survived rotation: %d recommendations served, equal to the old LRS's: %v\n",
		len(recs), slices.Equal(recs, d.Engine.Recommend(oldProbe[0], 3)))
	if len(recs) == 0 {
		return fmt.Errorf("profiles lost in rotation")
	}
	fmt.Println("\nincident closed: fresh enclaves of both layers are provisioned with the new keys and a fresh link key,")
	fmt.Println("the user-side library gets the new bundle, and the old LRS state is destroyed (§2.3 fn.1).")
	return nil
}

func dbEvents(e *engine.Engine) []adversary.DBEvent {
	var db []adversary.DBEvent
	e.ForEachEvent(func(doc store.Document) {
		db = append(db, adversary.DBEvent{
			UserPseudonym: doc.Fields["user"],
			ItemPseudonym: doc.Fields["item"],
		})
	})
	return db
}
