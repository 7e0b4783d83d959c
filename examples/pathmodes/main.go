// Path modes: reproduce the paper's core comparison between shorter-path
// and longer-path regimes (evaluation cases 3 vs 4, Tables 5 and 9).
//
// Longer routes make it harder to avoid selfish nodes — a single CSN
// anywhere on the route kills the packet — so evolved populations become
// measurably less forgiving toward low-trust sources.
package main

import (
	"context"
	"fmt"
	"log"

	"adhocga"
)

func main() {
	sc := adhocga.Scale{Name: "example", Generations: 30, Rounds: 300, Repetitions: 2}

	// Cases 3 and 4 are the third and fourth scenarios of the paper's
	// table4 family; run them as one batch on a shared pool, each on its
	// own pinned seed.
	table4, err := adhocga.ScenarioFamilyByName("table4")
	if err != nil {
		log.Fatal(err)
	}
	var runs []adhocga.ScenarioRun
	for _, spec := range table4.Specs()[2:4] {
		fmt.Printf("running %s...\n", spec.Name)
		runs = append(runs, adhocga.ScenarioRun{Spec: spec, Seed: uint64(10 + spec.ID)})
	}
	session := adhocga.NewSession()
	defer session.Close()
	batch, err := session.RunScenarios(context.Background(), runs, sc, adhocga.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	results := map[int]*adhocga.CaseResult{3: batch[0], 4: batch[1]}

	fmt.Println("\nper-environment cooperation (paper Table 5):")
	fmt.Println("env   shorter paths   longer paths    paper SP   paper LP")
	paperSP := []float64{99, 66, 28, 19}
	paperLP := []float64{99, 41, 7, 5}
	for ei := 0; ei < 4; ei++ {
		fmt.Printf("TE%d   %8.1f%%      %8.1f%%      %5.0f%%     %5.0f%%\n",
			ei+1,
			results[3].PerEnv[ei].Cooperation.Mean*100,
			results[4].PerEnv[ei].Cooperation.Mean*100,
			paperSP[ei], paperLP[ei])
	}

	fmt.Println("\nhow forgiving are the evolved strategies toward barely-trusted")
	fmt.Println("(trust 1) sources? fraction of populations forwarding per pattern:")
	for _, id := range []int{3, 4} {
		subs := results[id].Census.SubStrategies(adhocga.Trust1, 0.03)
		fmt.Printf("  case %d:", id)
		for _, e := range subs {
			fmt.Printf("  %s=%.0f%%", e.Pattern, e.Fraction*100)
		}
		fmt.Println()
	}
	fmt.Println("\n(the paper's Table 9 finds 000 — never cooperate at trust 1 —")
	fmt.Println("dominating the longer-path populations at 53%)")
}
