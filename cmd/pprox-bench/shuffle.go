package main

import (
	"fmt"
	"math/rand"
	"time"

	"pprox/internal/proxy"
)

// interleaveRng drives the cross-instance interleaving model; seeded for
// reproducible experiment output.
var interleaveRng = rand.New(rand.NewSource(42))

// runShuffleExperiment measures the adversary's linking probability
// against the real shuffler implementation and compares it with the §6.2
// analysis: 1/S with one instance per layer, 1/(S·I) with I instances in
// the observed layer.
func runShuffleExperiment() error {
	fmt.Println("\n=== §6.2 — adversary linking probability under shuffling ===")
	fmt.Printf("%-4s %-4s %10s %10s  %s\n", "S", "I", "measured", "theory", "batches")

	const batches = 300
	for _, s := range []int{2, 5, 10, 20} {
		for _, instances := range []int{1, 2, 4} {
			acc, err := measureLinkingProbability(s, instances, batches)
			if err != nil {
				return err
			}
			fmt.Printf("%-4d %-4d %10.4f %10.4f  %d\n", s, instances, acc, 1.0/float64(s*instances), batches)
		}
	}
	fmt.Println("(measured = in-order timing attack accuracy against real Shuffler batches)")
	return nil
}

// measureLinkingProbability drives full batches through I real shufflers
// of size S and scores the in-order correlation attack on the merged
// egress stream.
func measureLinkingProbability(s, instances, batches int) (float64, error) {
	correct, total := 0, 0
	for b := 0; b < batches; b++ {
		n := s * instances
		// results[k] = (instance, within-epoch release position) of the
		// k-th arriving message; arrivals round-robin across instances
		// as a balancer would spread them. Each message is its arrival
		// index, so an epoch's sink call reads the positions off directly.
		type released struct{ instance, pos int }
		results := make([]released, n)
		for k := range results {
			results[k].pos = -1
		}
		shufflers := make([]*proxy.Shuffler, instances)
		for i := range shufflers {
			inst := i
			shufflers[i] = proxy.NewShuffler(s, time.Minute, 0)
			shufflers[i].SetBatchSink(func(vals []any) {
				for pos, v := range vals {
					results[v.(int)] = released{instance: inst, pos: pos}
				}
			})
		}
		for k := 0; k < n; k++ {
			if err := shufflers[k%instances].Enqueue(k); err != nil {
				return 0, err
			}
		}
		for i := range shufflers {
			shufflers[i].Close()
		}

		// The adversary sees one merged egress stream. All instances
		// flush at the same instant and their packets are
		// indistinguishable (constant size, encrypted), so the
		// interleaving across instances at each release step carries no
		// information — model it as a random permutation of the
		// instances per step. Egress rank of message k:
		// pos(k)·I + (k's instance's slot in that step's interleave).
		// Each release step p carries one message per instance; draw the
		// step's interleave once.
		slotOf := make([][]int, s) // slotOf[p][instance] = slot in step p
		for p := 0; p < s; p++ {
			slotOf[p] = make([]int, instances)
			for slot, inst := range interleaveRng.Perm(instances) {
				slotOf[p][inst] = slot
			}
		}
		for k := 0; k < n; k++ {
			r := results[k]
			if r.pos < 0 {
				return 0, fmt.Errorf("shuffler shed a message (S=%d I=%d)", s, instances)
			}
			egressRank := r.pos*instances + slotOf[r.pos][r.instance]
			if egressRank == k {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total), nil
}
