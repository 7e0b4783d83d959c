// Custom strategies: hand-write forwarding strategies in the paper's
// notation and pit them against each other in fixed-population
// tournaments — no evolution, just the game model.
//
// The example measures the classic result that motivates the whole paper:
// unconditional cooperation is exploitable, unconditional defection is
// self-defeating, and trust-conditioned strategies both protect themselves
// and keep the network useful.
package main

import (
	"context"
	"fmt"
	"log"

	"adhocga"
)

func main() {
	// The paper's own Table 7 winner for case 3, written in its grouped
	// notation: trust0=010, trust1=101, trust2=101, trust3=111, unknown=1.
	table7Winner, err := adhocga.ParseStrategy("010 101 101 111 1")
	if err != nil {
		log.Fatal(err)
	}
	// A hand-written "grudger": forward only for trust ≥ 2, discard
	// unknowns — maximally suspicious.
	grudger, err := adhocga.ParseStrategy("000 000 111 111 0")
	if err != nil {
		log.Fatal(err)
	}

	contenders := []adhocga.Profile{
		{Name: "table-7 winner", Strategy: table7Winner},
		{Name: "grudger", Strategy: grudger},
		adhocga.ProfileAllCooperate,
		adhocga.ProfileAllDefect,
	}

	fmt.Println("four strategies, 10 players each, plus 10 CSN, 300 rounds:")
	groups := make([]adhocga.MixGroup, len(contenders))
	for i, p := range contenders {
		groups[i] = adhocga.MixGroup{Profile: p, Count: 10}
	}
	session := adhocga.NewSession()
	defer session.Close()
	res, err := session.RunMix(context.Background(), adhocga.MixConfig{
		Groups: groups,
		CSN:    10,
		Rounds: 300,
		Mode:   adhocga.ShorterPaths(),
		Game:   adhocga.DefaultGameConfig(),
		Seed:   99,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-16s %10s %10s %14s\n", "strategy", "delivery", "fitness", "forward share")
	for _, g := range res.Groups {
		fmt.Printf("%-16s %9.1f%% %10.2f %13.1f%%\n",
			g.Name, g.DeliveryRate*100, g.Fitness, g.ForwardShare*100)
	}
	fmt.Printf("\nnetwork-wide cooperation: %.1f%%   CSN delivery: %.1f%%\n",
		res.Cooperation*100, res.CSNDelivery*100)
	fmt.Println("\nthe trust-conditioned strategies collect the best fitness: they")
	fmt.Println("save energy on low-trust sources like the defectors do, while")
	fmt.Println("keeping enough reputation to get their own packets through;")
	fmt.Println("pure defectors starve and pure cooperators subsidize everyone.")
}
