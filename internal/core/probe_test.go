package core

// Calibration probe: prints the cooperation trajectory at near-paper scale.
// Run manually with:
//
//	go test ./internal/core -run TestProbeCooperation -v -probe
//
// It is skipped unless -probe is set, since it takes tens of seconds.

import (
	"context"
	"flag"
	"fmt"
	"testing"

	"adhocga/internal/event"
	"adhocga/internal/ga"
	"adhocga/internal/network"
	"adhocga/internal/tournament"
)

var probe = flag.Bool("probe", false, "run the expensive calibration probe")

func TestProbeCooperation(t *testing.T) {
	if !*probe {
		t.Skip("probe disabled; use -probe")
	}
	cfg := PaperConfig([]tournament.Environment{{Name: "TE1", CSN: 0}}, network.ShorterPaths(), 1)
	cfg.Generations = 60
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), func(ev event.Event) {
		if g := ev.Generation; g != nil && (g.Gen%5 == 0 || g.Gen < 10) {
			fmt.Printf("gen %3d  coop %.3f  fit mean %.3f best %.3f div %.3f\n",
				g.Gen, g.Coop, g.MeanFit, g.BestFit, g.Diversity)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeCase2Basin measures case 2 (TE4 only, 30 CSN) convergence as a
// function of L and rounds.
func TestProbeCase2Basin(t *testing.T) {
	if !*probe {
		t.Skip("probe disabled; use -probe")
	}
	for _, v := range []struct {
		name   string
		L      int
		rounds int
	}{
		{"L=1 R=300", 1, 300},
		{"L=2 R=300", 2, 300},
		{"L=2 R=150", 2, 150},
	} {
		const reps = 6
		results := make(chan float64, reps)
		for rep := 0; rep < reps; rep++ {
			go func(seed uint64) {
				envs := tournament.PaperEnvironments()[3:4]
				cfg := PaperConfig(envs, network.ShorterPaths(), seed)
				cfg.Generations = 80
				cfg.Eval.PlaysPerEnv = v.L
				cfg.Eval.Tournament.Rounds = v.rounds
				e, err := New(cfg)
				if err != nil {
					t.Error(err)
					results <- -1
					return
				}
				res, err := e.Run(context.Background(), discard)
				if err != nil {
					t.Error(err)
					results <- -1
					return
				}
				results <- res.CoopSeries[len(res.CoopSeries)-1]
			}(uint64(200 + rep))
		}
		var finals []float64
		for rep := 0; rep < reps; rep++ {
			finals = append(finals, <-results)
		}
		fmt.Printf("case2 %s: finals %.3f\n", v.name, finals)
	}
}

// TestProbeCase4Basin measures how often case 4 (longer paths) reaches the
// cooperative basin, as a function of L (plays per environment) and GA
// tournament size — both under-specified by the paper.
func TestProbeCase4Basin(t *testing.T) {
	if !*probe {
		t.Skip("probe disabled; use -probe")
	}
	variants := []struct {
		name    string
		L       int
		selSize int
	}{
		{"L=1 k=2", 1, 2},
		{"L=2 k=2", 2, 2},
		{"L=1 k=4", 1, 4},
	}
	for _, v := range variants {
		converged := 0
		const reps = 6
		type out struct{ final float64 }
		results := make(chan out, reps)
		for rep := 0; rep < reps; rep++ {
			go func(seed uint64) {
				cfg := PaperConfig(tournament.PaperEnvironments(), network.LongerPaths(), seed)
				cfg.Generations = 60
				cfg.Eval.PlaysPerEnv = v.L
				cfg.GA = ga.Config{
					Selector:      ga.TournamentSelector{Size: v.selSize},
					CrossoverProb: cfg.GA.CrossoverProb,
					MutationProb:  cfg.GA.MutationProb,
				}
				e, err := New(cfg)
				if err != nil {
					t.Error(err)
					results <- out{}
					return
				}
				res, err := e.Run(context.Background(), discard)
				if err != nil {
					t.Error(err)
					results <- out{}
					return
				}
				results <- out{final: res.MeanEnvCoopSeries[len(res.MeanEnvCoopSeries)-1]}
			}(uint64(100 + rep))
		}
		var finals []float64
		for rep := 0; rep < reps; rep++ {
			o := <-results
			finals = append(finals, o.final)
			if o.final > 0.2 {
				converged++
			}
		}
		fmt.Printf("%s: converged %d/%d  finals %.3f\n", v.name, converged, reps, finals)
	}
}
