package tournament

import (
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/trust"
)

// observe records one watchdog observation in p's store — p saw node id
// forward (or drop) a packet — through a one-slot trust.Matrix, the way a
// tournament writes stores.
func observe(p *game.Player, id network.NodeID, forwarded bool) {
	var m trust.Matrix
	m.Load([]*trust.Store{p.Rep}, []network.NodeID{id}, int(max(p.ID, id))+1)
	c := &m.Cells[0]
	if c.Requests == 0 {
		m.Known[0]++
	}
	c.Requests++
	if forwarded {
		c.Forwards++
		m.ForwardsSum[0]++
	}
	m.Save()
}

// rateOf returns p's forwarding rate for id and whether p knows id.
func rateOf(p *game.Player, id network.NodeID) (float64, bool) {
	c := p.Rep.Counters(id)
	if c.Requests == 0 {
		return 0, false
	}
	return c.Rate(), true
}

// knows reports whether p has any data about id.
func knows(p *game.Player, id network.NodeID) bool { return p.Rep.Counters(id).Requests > 0 }

// knownCount returns the number of nodes p has data about.
func knownCount(p *game.Player) int {
	known, _ := p.Rep.Totals()
	return known
}

// gossipRounds seats the participants on the scratch board, runs n gossip
// rounds, each from its own rng.Source when fresh is set (seeded by the
// round index), and writes the board back.
func gossipRounds(participants []*game.Player, cfg *Config, r *rng.Source, n int, fresh bool, sc *Scratch) {
	size := 0
	for _, p := range participants {
		size = max(size, int(p.ID)+1)
	}
	sc.board.Load(participants, size)
	for i := 0; i < n; i++ {
		if fresh {
			r = rng.New(uint64(i))
		}
		gossip(participants, cfg, r, sc)
	}
	sc.board.Save()
}
