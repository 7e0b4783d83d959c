package tournament

import (
	"fmt"
	"strings"
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

// storeFingerprint renders a player's full reputation memory — every known
// peer in ascending ID order with its exact counters and the float bits of
// its forwarding rate — so two stores compare equal iff they are
// bit-identical.
func storeFingerprint(p *game.Player) string {
	var sb strings.Builder
	for id := network.NodeID(0); id < 32; id++ {
		if c := p.Rep.Counters(id); c.Requests > 0 {
			fmt.Fprintf(&sb, "%d:%d/%d:%x;", id, c.Forwards, c.Requests, c.Rate())
		}
	}
	return sb.String()
}

// runGossipTournament plays one gossip-heavy tournament from a fixed seed
// and fingerprints every participant's merged store.
func runGossipTournament(seed uint64) []string {
	r := rng.New(seed)
	normals := make([]*game.Player, 20)
	for i := range normals {
		normals[i] = game.NewNormal(network.NodeID(i), strategy.Random(r))
	}
	csn := []*game.Player{game.NewSelfish(20), game.NewSelfish(21)}
	registry := BuildRegistry(normals, csn)
	participants := append(append([]*game.Player{}, normals...), csn...)

	cfg := &Config{
		Rounds:         40,
		Mode:           network.ShorterPaths(),
		Game:           game.DefaultConfig(),
		GossipInterval: 2,
		GossipWeight:   0.25,
		GossipMinRate:  0.5,
	}
	PlayWith(participants, registry, cfg, network.NewGenerator(cfg.Mode), r, nil, &Scratch{})

	prints := make([]string, len(participants))
	for i, p := range participants {
		prints[i] = storeFingerprint(p)
	}
	return prints
}

// TestGossipMergeDeterministic verifies that second-hand reputation
// exchange is fully deterministic: the same seed must produce
// bit-identical merged stores on every run. The dense store makes
// the merge iterate peers in ascending NodeID order (the map
// representation iterated randomly; the merge was already commutative,
// but this pins the property against future non-commutative extensions).
func TestGossipMergeDeterministic(t *testing.T) {
	want := runGossipTournament(99)
	nonEmpty := 0
	for _, fp := range want {
		if fp != "" {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("gossip tournament produced no reputation data at all")
	}
	for run := 1; run < 10; run++ {
		got := runGossipTournament(99)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: player %d store diverged\n got %s\nwant %s",
					run, i, got[i], want[i])
			}
		}
	}
}

// TestMergePositiveAscendingOrder pins the gossip merge on a seated
// board: merged peers land in the receiver exactly as the source holds
// them, scaled by the weight, in ascending ID order, except the receiver
// itself and peers below the rate filter. Peers outside the tournament
// merge through the stores.
func TestMergePositiveAscendingOrder(t *testing.T) {
	teacher := game.NewNormal(0, strategy.AllForward())
	student := game.NewNormal(1, strategy.AllForward())
	for _, id := range []network.NodeID{9, 3, 7, 1} {
		observe(teacher, id, true)
		observe(teacher, id, true)
	}
	observe(teacher, 5, false) // a negative report: filtered out
	cfg := testConfig(1)
	cfg.GossipWeight = 0.5
	cfg.GossipMinRate = 0.5
	var sc Scratch
	gossipRounds([]*game.Player{teacher, student}, cfg, rng.New(1), 1, false, &sc)

	var got []network.NodeID
	for id := network.NodeID(0); id < 10; id++ {
		if c := student.Rep.Counters(id); c.Requests > 0 {
			got = append(got, id)
			if c.Requests != 1 || c.Forwards != 1 {
				t.Errorf("student's record of %d = %+v, want 1/1", id, c)
			}
		}
	}
	want := []network.NodeID{3, 7, 9} // id 1 is the student itself: skipped
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("known peers = %v, want ascending %v", got, want)
	}
	if known, fsum := student.Rep.Totals(); known != 3 || fsum != 3 {
		t.Errorf("student totals = %d known, %d forwards; want 3, 3", known, fsum)
	}
}
