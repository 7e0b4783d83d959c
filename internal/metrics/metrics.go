// Package metrics aggregates the observables the paper reports: the
// cooperation level (Fig 4, Table 5), CSN-free path fractions (Table 5),
// and the response to packet forwarding requests broken down by the type
// of the requesting and rejecting node (Table 6).
//
// A Collector implements the tournament.Recorder interface and is wired
// through one generation's evaluation pass.
package metrics

import (
	"adhocga/internal/game"
	"adhocga/internal/tournament"
)

// EnvStats aggregates per-environment observables.
type EnvStats struct {
	Name string
	// NormalGames counts games originated by normal nodes; Delivered
	// counts how many of those reached the destination. Their ratio is the
	// paper's cooperation level (§6.2).
	NormalGames     uint64
	NormalDelivered uint64
	// CSNFreePaths counts normal-originated games whose chosen route
	// contained no constantly selfish node (Table 5, last columns).
	CSNFreePaths uint64
}

// CooperationLevel returns the fraction of normal-originated packets that
// reached the destination, or 0 when no games were recorded.
func (e *EnvStats) CooperationLevel() float64 {
	if e.NormalGames == 0 {
		return 0
	}
	return float64(e.NormalDelivered) / float64(e.NormalGames)
}

// CSNFreeFraction returns the fraction of normal-originated games whose
// route avoided every CSN.
func (e *EnvStats) CSNFreeFraction() float64 {
	if e.NormalGames == 0 {
		return 0
	}
	return float64(e.CSNFreePaths) / float64(e.NormalGames)
}

// ResponseCounts tallies what happened to forwarding requests: accepted
// (forwarded), rejected by a normal player, or rejected by a CSN
// (Table 6's three rows). Drops by Byzantine adversaries (the dynamics
// extension) are tallied separately so Table 6's CSN attribution stays
// comparable with the paper.
type ResponseCounts struct {
	Accepted            uint64
	RejectedByNormal    uint64
	RejectedBySelfish   uint64
	RejectedByByzantine uint64
}

// Total returns the number of requests recorded.
func (r ResponseCounts) Total() uint64 {
	return r.Accepted + r.RejectedByNormal + r.RejectedBySelfish + r.RejectedByByzantine
}

// Fractions returns the shares of Total for the paper's three Table 6
// rows — accepted, rejected-by-normal, rejected-by-CSN — or zeros when
// empty. Byzantine rejections count toward Total but have no share here,
// so in dynamics runs the three values may sum below 1; compute
// RejectedByByzantine/Total for the fourth share.
func (r ResponseCounts) Fractions() (accepted, rejNormal, rejSelfish float64) {
	t := r.Total()
	if t == 0 {
		return 0, 0, 0
	}
	return float64(r.Accepted) / float64(t),
		float64(r.RejectedByNormal) / float64(t),
		float64(r.RejectedBySelfish) / float64(t)
}

// Collector implements tournament.Recorder and accumulates all paper
// observables over one evaluation pass (one generation). The zero value is
// NOT usable; call NewCollector.
type Collector struct {
	envs []EnvStats
	cur  *EnvStats

	// Requests from normal players and from CSN (Table 6 columns), plus
	// the requests Byzantine adversaries sourced (dynamics extension).
	FromNormal ResponseCounts
	FromCSN    ResponseCounts
	FromByz    ResponseCounts
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

var _ tournament.Recorder = (*Collector)(nil)

// BeginEnvironment starts aggregation for the environment at the given
// index; part of tournament.Recorder.
func (c *Collector) BeginEnvironment(index int, env tournament.Environment) {
	for len(c.envs) <= index {
		c.envs = append(c.envs, EnvStats{})
	}
	c.envs[index].Name = env.Name
	c.cur = &c.envs[index]
}

// RecordGame ingests one completed game; part of game.Recorder. When no
// BeginEnvironment was seen, games land in an implicit environment 0.
func (c *Collector) RecordGame(src *game.Player, inters []*game.Player, firstDrop int) {
	if c.cur == nil {
		c.BeginEnvironment(0, tournament.Environment{Name: "default"})
	}
	delivered := firstDrop < 0

	if src.Type == game.Normal {
		c.cur.NormalGames++
		if delivered {
			c.cur.NormalDelivered++
		}
		hasCSN := false
		for _, p := range inters {
			if p.Type == game.Selfish {
				hasCSN = true
				break
			}
		}
		if !hasCSN {
			c.cur.CSNFreePaths++
		}
	}

	// Forwarding requests: every intermediate that received the packet
	// made a decision. Those before the first drop forwarded, so the only
	// rejection to attribute is the dropper's own.
	counts := &c.FromNormal
	switch src.Type {
	case game.Selfish:
		counts = &c.FromCSN
	case game.Byzantine:
		counts = &c.FromByz
	}
	if delivered {
		counts.Accepted += uint64(len(inters))
		return
	}
	counts.Accepted += uint64(firstDrop)
	switch inters[firstDrop].Type {
	case game.Selfish:
		counts.RejectedBySelfish++
	case game.Byzantine:
		counts.RejectedByByzantine++
	default:
		counts.RejectedByNormal++
	}
}

// Environments returns the per-environment statistics in evaluation order.
func (c *Collector) Environments() []EnvStats { return c.envs }

// CooperationLevel returns the overall cooperation level: delivered /
// originated over all normal-sourced games in all environments.
func (c *Collector) CooperationLevel() float64 {
	var games, delivered uint64
	for i := range c.envs {
		games += c.envs[i].NormalGames
		delivered += c.envs[i].NormalDelivered
	}
	if games == 0 {
		return 0
	}
	return float64(delivered) / float64(games)
}

// MeanEnvCooperation returns the unweighted mean of the per-environment
// cooperation levels — the Fig 4 summary number for multi-environment
// cases (see DESIGN.md on the paper's swapped 38%/54% prose).
func (c *Collector) MeanEnvCooperation() float64 {
	if len(c.envs) == 0 {
		return 0
	}
	sum := 0.0
	for i := range c.envs {
		sum += c.envs[i].CooperationLevel()
	}
	return sum / float64(len(c.envs))
}

// Merge adds every count in o into c, aligning environments by index (all
// islands of a sharded run evaluate the same environment list, so index i
// means the same environment in both). The island engine uses it to build
// the run-wide view of one generation from the per-island collectors; for
// a single source it reproduces that collector's counts exactly.
func (c *Collector) Merge(o *Collector) {
	for i := range o.envs {
		for len(c.envs) <= i {
			c.envs = append(c.envs, EnvStats{})
		}
		e := &c.envs[i]
		if e.Name == "" {
			e.Name = o.envs[i].Name
		}
		e.NormalGames += o.envs[i].NormalGames
		e.NormalDelivered += o.envs[i].NormalDelivered
		e.CSNFreePaths += o.envs[i].CSNFreePaths
	}
	c.FromNormal.Add(o.FromNormal)
	c.FromCSN.Add(o.FromCSN)
	c.FromByz.Add(o.FromByz)
}

// Add accumulates every count of o into r.
func (r *ResponseCounts) Add(o ResponseCounts) {
	r.Accepted += o.Accepted
	r.RejectedByNormal += o.RejectedByNormal
	r.RejectedBySelfish += o.RejectedBySelfish
	r.RejectedByByzantine += o.RejectedByByzantine
}

// Reset clears the collector for reuse in the next generation.
func (c *Collector) Reset() {
	c.envs = c.envs[:0]
	c.cur = nil
	c.FromNormal = ResponseCounts{}
	c.FromCSN = ResponseCounts{}
	c.FromByz = ResponseCounts{}
}
