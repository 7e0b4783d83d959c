// Package game implements the Ad Hoc Network Game of §4: one node
// originates a packet, the intermediate nodes on the chosen route decide in
// order whether to forward or discard it, and every participant that saw
// the packet receives a payoff and updates its reputation memory.
//
// The packet itself is never materialized — the game is about decisions,
// payoffs and reputation, exactly as in the paper's model.
package game

import (
	"fmt"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
	"adhocga/internal/trust"
)

// NodeType distinguishes the player types: the paper's two (§4.3) plus
// the Byzantine adversaries of the dynamics extension.
type NodeType uint8

const (
	// Normal nodes play an evolvable strategy and want both to send
	// packets and to save battery.
	Normal NodeType = iota
	// Selfish nodes (the paper's CSN, "constantly selfish nodes") never
	// forward and are excluded from selection and reproduction.
	Selfish
	// Byzantine nodes run a fixed adversarial behavior (see Adversary)
	// beyond plain selfishness: lying in gossip, on-off attacking, or
	// free-riding. Like CSN they participate in tournaments but never in
	// selection or reproduction.
	Byzantine
)

// String returns "normal", "selfish", or "byzantine".
func (t NodeType) String() string {
	switch t {
	case Selfish:
		return "selfish"
	case Byzantine:
		return "byzantine"
	default:
		return "normal"
	}
}

// Adversary identifies the Byzantine behavior a player runs; AdvNone for
// normal and plain-selfish players. The behaviors themselves live in
// internal/dynamics (strategy scheduling) and internal/tournament (gossip
// lying) — the game package only carries the tag so the hot path stays a
// plain strategy lookup.
type Adversary uint8

const (
	// AdvNone marks a non-adversarial player.
	AdvNone Adversary = iota
	// AdvFreeRider sources packets like everyone else but never forwards
	// (its strategy is pinned to AllDiscard). Unlike CSN, free-riders are
	// part of the dynamics cohort present in every environment.
	AdvFreeRider
	// AdvLiar forwards reliably to keep its own reputation high, but
	// injects inverted observations when chosen as a gossip peer
	// (trust.Matrix.Merge with invert set).
	AdvLiar
	// AdvOnOff alternates between a forwarding phase (building trust) and
	// a discarding phase, on a fixed round schedule driven by the dynamics
	// layer through the tournament's RoundDriver hook.
	AdvOnOff
)

// String returns the adversary kind's short name.
func (a Adversary) String() string {
	switch a {
	case AdvFreeRider:
		return "free-rider"
	case AdvLiar:
		return "liar"
	case AdvOnOff:
		return "on-off"
	default:
		return "none"
	}
}

// PayoffTable holds the two payoff tables of Fig 2a. Forward and Discard
// are indexed by the deciding node's trust level in the packet's source.
type PayoffTable struct {
	SourceSuccess float64 // source payoff when the packet is delivered ("S")
	SourceFailure float64 // source payoff when any intermediate drops ("F")
	Forward       [strategy.NumTrustLevels]float64
	Discard       [strategy.NumTrustLevels]float64
}

// DefaultPayoffs returns the reproduction's reading of Fig 2a (see
// DESIGN.md §3 for the reconstruction of the garbled scan): forwarding
// pays more for more trusted sources (0.3/0.5/1/2 for trust 0..3), and
// discarding pays most for barely-trusted sources (2/3/1/0.5).
func DefaultPayoffs() PayoffTable {
	return PayoffTable{
		SourceSuccess: 5,
		SourceFailure: 0,
		Forward:       [strategy.NumTrustLevels]float64{0.3, 0.5, 1.0, 2.0},
		Discard:       [strategy.NumTrustLevels]float64{2.0, 3.0, 1.0, 0.5},
	}
}

// Validate checks structural sanity: no negative payoffs, success paying
// at least failure, and forwarding payoff non-decreasing in trust (the
// §4.2 design property "the higher the trust level is the higher payoff").
func (p PayoffTable) Validate() error {
	if p.SourceSuccess < p.SourceFailure {
		return fmt.Errorf("game: source success payoff %v below failure payoff %v", p.SourceSuccess, p.SourceFailure)
	}
	for i := 0; i < strategy.NumTrustLevels; i++ {
		if p.Forward[i] < 0 || p.Discard[i] < 0 {
			return fmt.Errorf("game: negative payoff at trust level %d", i)
		}
		if i > 0 && p.Forward[i] < p.Forward[i-1] {
			return fmt.Errorf("game: forward payoff must be non-decreasing in trust, got %v", p.Forward)
		}
	}
	return nil
}

// Config bundles the rule parameters of the game.
type Config struct {
	Payoffs PayoffTable
	// TrustTable maps forwarding rates to trust levels (Fig 1b).
	TrustTable trust.Table
	// UnknownTrust is the trust level used for the payoff of a decision
	// about an unknown source; the paper sets it to 1 (§6.1). The
	// *decision* for unknown sources always comes from strategy bit 12.
	UnknownTrust strategy.TrustLevel
	// ActivityBand is the ± fraction around the mean that counts as
	// medium activity (§3.2; the paper uses 0.2).
	ActivityBand float64
	// BlindDecisions, when true, hides all reputation data from the
	// forwarding decision: every source looks unknown, so only strategy
	// bit 12 applies and payoffs are priced at UnknownTrust. Combined
	// with random path choice this is the paper's §4.2 counterfactual —
	// a network with no reputation system, where selfishness goes
	// unnoticed. Ablation use only.
	BlindDecisions bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Payoffs:      DefaultPayoffs(),
		TrustTable:   trust.DefaultTable(),
		UnknownTrust: strategy.Trust1,
		ActivityBand: trust.DefaultActivityBand,
	}
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if err := c.Payoffs.Validate(); err != nil {
		return err
	}
	if err := c.TrustTable.Validate(); err != nil {
		return err
	}
	if !c.UnknownTrust.Valid() {
		return fmt.Errorf("game: invalid unknown-trust level %d", c.UnknownTrust)
	}
	if c.ActivityBand < 0 || c.ActivityBand >= 1 {
		return fmt.Errorf("game: activity band %v outside [0,1)", c.ActivityBand)
	}
	return nil
}

// Account accumulates a player's payoffs, split by origin as in the
// fitness function (eq. 1): tps from sourcing packets, tpf from
// forwarding, tpd from discarding; Events is ne.
type Account struct {
	SourcePayoff  float64
	ForwardPayoff float64
	DiscardPayoff float64
	Events        int
	// Decision counters, kept for diagnostics (not part of eq. 1).
	Sent, Delivered, Forwards, Discards int
}

// Fitness returns eq. 1: (tps + tpf + tpd) / ne, or 0 for a player with no
// events (it cannot be compared, and 0 keeps it out of the winners).
func (a *Account) Fitness() float64 {
	if a.Events == 0 {
		return 0
	}
	return (a.SourcePayoff + a.ForwardPayoff + a.DiscardPayoff) / float64(a.Events)
}

// Reset zeroes the account for a new generation.
func (a *Account) Reset() { *a = Account{} }

// Player is one network participant: an identity, a type, a strategy, a
// private reputation memory and a payoff account.
type Player struct {
	ID       network.NodeID
	Type     NodeType
	Adv      Adversary // AdvNone unless Type is Byzantine
	Strategy strategy.Strategy
	Rep      *trust.Store
	Acct     Account
}

// NewNormal returns a normal player with the given strategy.
func NewNormal(id network.NodeID, s strategy.Strategy) *Player {
	return &Player{ID: id, Type: Normal, Strategy: s, Rep: trust.NewStore()}
}

// NewSelfish returns a constantly selfish player; its strategy is pinned
// to AllDiscard.
func NewSelfish(id network.NodeID) *Player {
	return &Player{ID: id, Type: Selfish, Strategy: strategy.AllDiscard(), Rep: trust.NewStore()}
}

// NewByzantine returns a Byzantine player running the given adversarial
// behavior with the given (fixed, non-evolving) base strategy. The
// dynamics layer constructs these and may swap the strategy at round
// boundaries (on-off attacks).
func NewByzantine(id network.NodeID, adv Adversary, s strategy.Strategy) *Player {
	return &Player{ID: id, Type: Byzantine, Adv: adv, Strategy: s, Rep: trust.NewStore()}
}

// ResetForGeneration clears reputation memory and the payoff account, as
// the evaluation scheme requires at the start of each generation.
func (p *Player) ResetForGeneration() {
	p.Rep.Reset()
	p.Acct.Reset()
}

// Recorder observes completed games; the metrics package implements it.
// The inters slice is only valid during the call.
type Recorder interface {
	// RecordGame is called once per game with the source, the
	// intermediates of the chosen path in order, and the index of the
	// first dropper within inters (-1 when the packet was delivered).
	RecordGame(src *Player, inters []*Player, firstDrop int)
}

// Board is the slot-indexed state one tournament plays on: participant i
// is slot i. Rep holds the participants' reputation about each other
// (trust.Matrix), Strat and Acct their strategies and payoff accounts.
// Load gathers it from the players and Save scatters it back; in between,
// Play reads and writes nothing else. A Board is reused across
// tournaments and must not be shared between goroutines.
type Board struct {
	Rep   trust.Matrix
	Strat []strategy.Strategy
	Acct  []Account

	players []*Player
	stores  []*trust.Store
	ids     []network.NodeID
	inters  []*Player // the recorder's view of a game's route
}

// Load seats the players in slot order, with every reputation store sized
// to cover NodeIDs 0..size-1 (the registry).
func (b *Board) Load(players []*Player, size int) {
	n := len(players)
	if cap(b.Acct) < n {
		b.stores = make([]*trust.Store, n)
		b.ids = make([]network.NodeID, n)
		b.Strat = make([]strategy.Strategy, n)
		b.Acct = make([]Account, n)
	}
	b.players = players
	b.stores, b.ids, b.Strat, b.Acct = b.stores[:n], b.ids[:n], b.Strat[:n], b.Acct[:n]
	for i, p := range players {
		b.stores[i], b.ids[i], b.Strat[i], b.Acct[i] = p.Rep, p.ID, p.Strategy, p.Acct
	}
	b.Rep.Load(b.stores, b.ids, size)
}

// Save writes the accounts and reputation back to the players Load seated.
func (b *Board) Save() {
	for i, p := range b.players {
		p.Acct = b.Acct[i]
	}
	b.Rep.Save()
	b.players = nil
}

// Play runs one game: the participant in slot src sends a packet along one
// of the candidate paths (slot-indexed, as network.Generator.Candidates
// draws them). It rates the candidates and picks the best (§3.1, ties
// drawn from r) when there is more than one; the intermediates decide in
// order; every participant that saw the packet is paid and updates its
// reputation. It returns the index of the chosen path and the position of
// the first dropper on it, or -1 when the packet was delivered.
//
// Each decision derives the trust level and the §3.2 activity from the
// decider's counters about the source at that moment. Unknown sources are
// decided by strategy bit 12 and priced at cfg.UnknownTrust.
//
// Reputation semantics (Fig 1a, pinned down in DESIGN.md): on success,
// every participant observes every intermediate (except itself) as having
// forwarded. On a drop at index k, the source and the intermediates before
// the dropper observe intermediates 0..k (forwarded for j<k, dropped for
// j==k); nodes after the dropper never saw the packet and learn nothing;
// the dropper itself propagates the alert but records no observations, as
// in the figure.
//
// A non-nil rec is notified once the game is over, with the seated
// players.
func (b *Board) Play(src int, paths []network.Path, r *rng.Source, cfg *Config, rec Recorder) (best, firstDrop int) {
	m := &b.Rep
	n := m.N
	cells := m.Cells
	if len(paths) > 1 {
		// A single candidate needs no rating (selection would return 0
		// without consuming randomness), which skips rating for the
		// majority of games: Table 3 yields one route 50–80% of the time.
		var buf [network.MaxAlternatePaths]float64
		ratings := buf[:0]
		row := cells[src*n : src*n+n]
		for i := range paths {
			rating := 1.0
			for _, p := range paths[i].Intermediates {
				f := network.UnknownRate
				if c := row[p]; c.Requests > 0 {
					f = c.Rate()
				}
				rating *= f
			}
			ratings = append(ratings, rating)
		}
		best = network.SelectBestRated(r, ratings)
	}
	inters := paths[best].Intermediates
	pay := &cfg.Payoffs
	firstDrop = -1
	for i, x := range inters {
		c := cells[int(x)*n+src]
		dec, tl := b.Strat[x].DecideUnknown(), cfg.UnknownTrust
		if c.Requests > 0 && !cfg.BlindDecisions {
			tl = cfg.TrustTable.Level(c.Rate())
			dec = b.Strat[x].Decide(tl, trust.Activity(c.Forwards, m.Known[x], m.ForwardsSum[x], cfg.ActivityBand))
		}
		a := &b.Acct[x]
		a.Events++
		if dec == strategy.Forward {
			a.ForwardPayoff += pay.Forward[tl]
			a.Forwards++
			continue
		}
		a.DiscardPayoff += pay.Discard[tl]
		a.Discards++
		firstDrop = i
		break
	}

	s := &b.Acct[src]
	s.Events++
	s.Sent++
	seen, upTo := inters, len(inters)-1 // who received the packet; who observes
	if firstDrop < 0 {
		s.SourcePayoff += pay.SourceSuccess
		s.Delivered++
	} else {
		s.SourcePayoff += pay.SourceFailure
		seen, upTo = inters[:firstDrop+1], firstDrop-1 // the dropper records nothing
	}

	// Observation: the source (o = -1) and intermediates 0..upTo each see
	// every intermediate that received the packet except themselves, as
	// forwarding unless it is the dropper.
	for o := -1; o <= upTo; o++ {
		obs := src
		if o >= 0 {
			obs = int(inters[o])
		}
		row := cells[obs*n : obs*n+n]
		known, fwd := 0, uint64(0)
		for j, p := range seen {
			if j == o {
				continue
			}
			c := &row[p]
			if c.Requests == 0 {
				known++
			}
			c.Requests++
			if j != firstDrop {
				c.Forwards++
				fwd++
			}
		}
		m.Known[obs] += known
		m.ForwardsSum[obs] += fwd
	}

	if rec != nil {
		ps := b.inters[:0]
		for _, x := range inters {
			ps = append(ps, b.players[x])
		}
		b.inters = ps
		rec.RecordGame(b.players[src], ps, firstDrop)
	}
	return best, firstDrop
}
