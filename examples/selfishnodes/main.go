// Selfish nodes: what happens to a network where 60% of the tournament is
// constantly selfish (the paper's case 2 / TE4)?
//
// The example contrasts two worlds: a fixed population of naive
// unconditional forwarders, which the selfish nodes exploit freely, and an
// evolved population, which learns to starve them while still serving
// each other as well as the selfish crowd allows.
package main

import (
	"context"
	"fmt"
	"log"

	"adhocga"
)

func main() {
	session := adhocga.NewSession()
	defer session.Close()
	ctx := context.Background()

	// World 1: unconditional forwarders + 30 CSN, no evolution.
	naive, err := session.RunMix(ctx, adhocga.MixConfig{
		Groups: []adhocga.MixGroup{{Profile: adhocga.ProfileAllCooperate, Count: 20}},
		CSN:    30,
		Rounds: 300,
		Mode:   adhocga.ShorterPaths(),
		Game:   adhocga.DefaultGameConfig(),
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("naive all-forward population with 30 CSN of 50:")
	fmt.Printf("  normal nodes' delivery: %5.1f%%\n", naive.Cooperation*100)
	fmt.Printf("  CSN delivery (free riding): %5.1f%%\n\n", naive.CSNDelivery*100)

	// World 2: the same environment, but strategies evolve (case 2, the
	// second scenario of the paper's table4 family).
	table4, err := adhocga.ScenarioFamilyByName("table4")
	if err != nil {
		log.Fatal(err)
	}
	sc := adhocga.Scale{Name: "example", Generations: 30, Rounds: 300, Repetitions: 2}
	results, err := session.RunScenarios(ctx,
		[]adhocga.ScenarioRun{{Spec: table4.Specs()[1], Seed: 7}}, sc, adhocga.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res := results[0]
	fmt.Println("evolved strategies in the same environment (case 2):")
	fmt.Printf("  normal nodes' delivery: %5.1f%%  (paper: ~19%%)\n", res.FinalCoop.Mean*100)
	accCSN, rejNP, _ := res.FromCSN.Fractions()
	fmt.Printf("  CSN forwarding requests accepted: %.1f%% (rejected by normals: %.1f%%)\n",
		accCSN*100, rejNP*100)
	fmt.Println("\nWith 60% of the network refusing to forward anything, even")
	fmt.Println("perfect strategies cannot push delivery high — but the evolved")
	fmt.Println("population reserves its forwarding for nodes that reciprocate.")
}
