package adhocga_test

import (
	"context"
	"fmt"

	"adhocga"
)

// Parse a strategy in the paper's notation and query its decisions.
func ExampleParseStrategy() {
	s, err := adhocga.ParseStrategy("010 101 101 111 1")
	if err != nil {
		panic(err)
	}
	fmt.Println("trusted, low-activity source:", s.Decide(adhocga.Trust3, adhocga.ActivityLow))
	fmt.Println("untrusted, low-activity source:", s.Decide(adhocga.Trust0, adhocga.ActivityLow))
	fmt.Println("unknown source:", s.DecideUnknown())
	// Output:
	// trusted, low-activity source: F
	// untrusted, low-activity source: D
	// unknown source: F
}

// Run a fixed-population tournament: 20 unconditional cooperators against
// 5 constantly selfish nodes.
func ExampleSession_RunMix() {
	session := adhocga.NewSession()
	defer session.Close()
	res, err := session.RunMix(context.Background(), adhocga.MixConfig{
		Groups: []adhocga.MixGroup{{Profile: adhocga.ProfileAllCooperate, Count: 20}},
		CSN:    5,
		Rounds: 50,
		Mode:   adhocga.ShorterPaths(),
		Game:   adhocga.DefaultGameConfig(),
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("groups:", len(res.Groups))
	fmt.Println("cooperation in range:", res.Cooperation > 0 && res.Cooperation <= 1)
	// Output:
	// groups: 1
	// cooperation in range: true
}

// Evolve strategies in a small CSN-free network for a few generations:
// submit the run as a job on a Session and stream its unified event feed.
func ExampleSession_Submit() {
	session := adhocga.NewSession(adhocga.WithPoolSize(2))
	defer session.Close()

	cfg := adhocga.DefaultEvolutionConfig(adhocga.PaperEnvironments()[:1], adhocga.ShorterPaths(), 42)
	cfg.PopulationSize = 20
	cfg.Eval.TournamentSize = 10
	cfg.Eval.Tournament.Rounds = 10
	cfg.Generations = 3

	job, err := session.Submit(context.Background(), adhocga.EvolveSpec{Config: cfg})
	if err != nil {
		panic(err)
	}
	generations := 0
	for e := range job.Events() {
		if e.Kind == adhocga.KindGeneration {
			generations++
		}
	}
	if err := job.Wait(context.Background()); err != nil {
		panic(err)
	}
	res := job.Result().(*adhocga.EvolutionResult)
	fmt.Println("job:", job.ID(), "state:", job.State())
	fmt.Println("generation events:", generations)
	fmt.Println("final strategies:", len(res.FinalStrategies))
	// Output:
	// job: job-1 state: done
	// generation events: 3
	// final strategies: 20
}
