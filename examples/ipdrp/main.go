// IPDRP: run the substrate game the paper builds on — the Iterated
// Prisoner's Dilemma under Random Pairing of Namikawa and Ishibuchi
// (CEC'05, the paper's reference [12]).
//
// Every round the whole population is re-paired at random and each player
// remembers only its own previous round. With no way to aim reciprocity at
// the individual who defected on you, defection takes over — exactly the
// problem the paper's reputation system solves for ad hoc networks, where
// "who did what" is observable via the watchdog.
package main

import (
	"context"
	"fmt"
	"log"

	"adhocga"
)

func main() {
	cfg := adhocga.DefaultIPDRPConfig(2005)
	cfg.Generations = 60
	session := adhocga.NewSession()
	defer session.Close()
	job, err := session.Submit(context.Background(), adhocga.IPDRPSpec{Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	for e := range job.Events() {
		if g := e.Generation; g != nil && g.Gen%10 == 0 {
			fmt.Printf("generation %2d: cooperation rate %5.1f%%\n", g.Gen, g.Coop*100)
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		log.Fatal(err)
	}
	res := job.Result().(*adhocga.IPDRPResult)
	final := res.CoopSeries[len(res.CoopSeries)-1]
	fmt.Printf("\nfinal cooperation rate: %.1f%%\n", final*100)
	fmt.Println("\ndominant strategies (first-move + responses to CC/CD/DC/DD):")
	for i, e := range res.Census() {
		if i == 3 {
			break
		}
		fmt.Printf("  %s  %5.1f%%\n", e.Strategy, e.Fraction*100)
	}
	fmt.Println("\nunder anonymous random pairing, cooperation collapses; the")
	fmt.Println("paper's ad hoc network game adds observable identities (trust),")
	fmt.Println("which is what lets cooperative strategies win there instead.")
}
