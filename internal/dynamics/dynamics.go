// Package dynamics implements the environment-perturbation layer: a
// deterministic model that mutates the network and the node population at
// generation barriers, turning the paper's static evaluation into the
// dynamic, hostile MANET setting of the related work (GAs under routing
// attacks, arXiv:1202.4628; immigrant schemes for dynamic environments,
// arXiv:1107.1943).
//
// The model has two halves:
//
//   - Churn & mobility. At every barrier a seeded fraction of the evolving
//     population departs and is replaced by naive immigrants: fresh random
//     genomes under fresh node identities. Identity turnover exercises the
//     dense storage layer in place — new NodeIDs extend the registry until
//     a bounded headroom is reached (trust.Store.EnsureSize resizes every
//     dense store), after which departed IDs are recycled
//     FIFO (trust.Store.Forget remaps the recycled slot without
//     reallocation). Link rewiring under mobility is modeled as a seeded
//     random walk of the route-length landscape between the paper's SP and
//     LP regimes (network.MixedPaths): as links rewire, routes get longer
//     or shorter for everyone, shifting the fitness landscape mid-run.
//
//   - Adversarial behaviors. A fixed cohort of non-evolving Byzantine
//     players joins every tournament (but never reproduction): free-riders
//     that source packets and never forward, gossip liars that inject
//     inverted reputation reports (trust.Matrix.Merge with invert), and on-off
//     attackers that alternate between trust-building forwarding phases
//     and discard bursts, driven through the tournament's RoundDriver
//     perturbation hook.
//
// # Determinism contract
//
// All perturbation randomness comes from one dedicated stream split from
// the engine's root seed at construction, consumed only at generation
// barriers in a fixed order (churn slots, immigrant genomes, rewire step).
// The evaluation stream is never touched: a run with a nil or disabled
// dynamics configuration is bit-identical to a build without the dynamics
// layer, and a dynamics-enabled run is bit-identical across GOMAXPROCS
// settings and fully reproducible from the root seed (pinned by golden
// tests in internal/experiment).
package dynamics

import (
	"fmt"
	"math"

	"adhocga/internal/ga"
	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
)

// Defaults filled in for zero-valued Config fields.
const (
	DefaultInterval   = 1
	DefaultIDHeadroom = 1.5
	DefaultOnRounds   = 20
	DefaultOffRounds  = 10
)

// Config parameterizes the perturbation model. The zero value disables
// every perturbation; zero-valued tuning fields keep the documented
// defaults (the repo-wide "zero keeps the default" spec convention).
type Config struct {
	// Interval is the number of generations between perturbation
	// barriers; 0 means DefaultInterval (every generation).
	Interval int
	// ChurnRate is the fraction of the evolving population replaced by
	// random immigrants with fresh identities at each barrier, in [0,1].
	ChurnRate float64
	// IDHeadroom bounds identity-space growth: fresh NodeIDs are handed
	// out until the registry reaches IDHeadroom × its initial size, after
	// which departed IDs are recycled FIFO. 0 means DefaultIDHeadroom;
	// 1 recycles immediately (no growth).
	IDHeadroom float64
	// RewireProb is the per-barrier probability that mobility rewires
	// enough links to shift the route-length landscape, in [0,1].
	RewireProb float64
	// RewireStep is the maximum drift of the SP↔LP mix parameter per
	// rewiring event; 0 keeps 0.25. The mix performs a seeded random walk
	// clamped to [0,1].
	RewireStep float64
	// FreeRiders, Liars and OnOff size the Byzantine cohort present in
	// every tournament.
	FreeRiders int
	Liars      int
	OnOff      int
	// OnRounds and OffRounds schedule the on-off attack: forward for
	// OnRounds rounds, discard for OffRounds, repeat. Zeros keep the
	// defaults (20/10).
	OnRounds  int
	OffRounds int
}

// withDefaults returns a copy with zero-valued tuning fields filled.
func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.IDHeadroom == 0 {
		c.IDHeadroom = DefaultIDHeadroom
	}
	if c.RewireStep == 0 {
		c.RewireStep = 0.25
	}
	if c.OnRounds == 0 {
		c.OnRounds = DefaultOnRounds
	}
	if c.OffRounds == 0 {
		c.OffRounds = DefaultOffRounds
	}
	return c
}

// Validate checks the configuration's structural invariants.
func (c Config) Validate() error {
	if c.Interval < 0 {
		return fmt.Errorf("dynamics: negative interval %d", c.Interval)
	}
	if c.ChurnRate < 0 || c.ChurnRate > 1 {
		return fmt.Errorf("dynamics: churn rate %v outside [0,1]", c.ChurnRate)
	}
	if c.IDHeadroom != 0 && c.IDHeadroom < 1 {
		return fmt.Errorf("dynamics: id headroom %v below 1", c.IDHeadroom)
	}
	if c.RewireProb < 0 || c.RewireProb > 1 {
		return fmt.Errorf("dynamics: rewire probability %v outside [0,1]", c.RewireProb)
	}
	if c.RewireStep < 0 || c.RewireStep > 1 {
		return fmt.Errorf("dynamics: rewire step %v outside [0,1]", c.RewireStep)
	}
	if c.FreeRiders < 0 || c.Liars < 0 || c.OnOff < 0 {
		return fmt.Errorf("dynamics: negative adversary count (free-riders %d, liars %d, on-off %d)",
			c.FreeRiders, c.Liars, c.OnOff)
	}
	if c.OnRounds < 0 || c.OffRounds < 0 {
		return fmt.Errorf("dynamics: negative on/off schedule (%d/%d)", c.OnRounds, c.OffRounds)
	}
	return nil
}

// Enabled reports whether the configuration perturbs anything at all; a
// disabled configuration must leave the engine bit-identical to having no
// dynamics layer.
func (c Config) Enabled() bool {
	return c.ChurnRate > 0 || c.RewireProb > 0 || c.AdversaryCount() > 0
}

// AdversaryCount returns the total Byzantine cohort size.
func (c Config) AdversaryCount() int { return c.FreeRiders + c.Liars + c.OnOff }

// Model is the per-engine perturbation state. Each core.Engine owns at
// most one Model; it is not safe for concurrent use (islands each build
// their own from their own seed).
type Model struct {
	cfg Config
	r   *rng.Source

	allForward, allDiscard strategy.Strategy

	// Identity management: fresh IDs grow the registry up to maxID, then
	// departed IDs are recycled FIFO from free.
	nextID, maxID int
	free          []network.NodeID

	// alpha is the current SP↔LP route-length mix.
	alpha float64

	// Perturbation counters for reporting.
	ChurnEvents   int // barriers at which at least one node was replaced
	Replaced      int // total immigrants introduced
	RewireEvents  int // barriers at which the landscape drifted
	IDSpaceGrowth int // fresh IDs handed out beyond the initial registry

	slots, idx, scratch []int
	touched             []network.NodeID
}

// NewModel validates cfg and builds a perturbation model drawing from r —
// a stream the caller must split from the engine's root seed before any
// evaluation randomness is consumed. initialIDs is the registry size at
// construction (normals + CSN + adversaries); initialAlpha seats the
// route-length mix at the scenario's base mode (0 for SP, 1 for LP).
func NewModel(cfg Config, r *rng.Source, initialIDs int, initialAlpha float64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	maxID := int(math.Ceil(cfg.IDHeadroom * float64(initialIDs)))
	if maxID < initialIDs {
		maxID = initialIDs
	}
	if initialAlpha < 0 {
		initialAlpha = 0
	}
	if initialAlpha > 1 {
		initialAlpha = 1
	}
	return &Model{
		cfg:        cfg,
		r:          r,
		allForward: strategy.AllForward(),
		allDiscard: strategy.AllDiscard(),
		nextID:     initialIDs,
		maxID:      maxID,
		alpha:      initialAlpha,
	}, nil
}

// NewAdversaries builds the Byzantine cohort with consecutive NodeIDs
// starting at base: free-riders (pinned to AllDiscard), then gossip liars
// (AllForward — they keep their own reputation spotless), then on-off
// attackers (starting in their forwarding phase). The returned players
// participate in tournaments but must never enter selection.
func (m *Model) NewAdversaries(base network.NodeID) []*game.Player {
	out := make([]*game.Player, 0, m.cfg.AdversaryCount())
	id := base
	for i := 0; i < m.cfg.FreeRiders; i++ {
		out = append(out, game.NewByzantine(id, game.AdvFreeRider, m.allDiscard))
		id++
	}
	for i := 0; i < m.cfg.Liars; i++ {
		out = append(out, game.NewByzantine(id, game.AdvLiar, m.allForward))
		id++
	}
	for i := 0; i < m.cfg.OnOff; i++ {
		out = append(out, game.NewByzantine(id, game.AdvOnOff, m.allForward))
		id++
	}
	return out
}

// BeginRound implements tournament.RoundDriver: on-off attackers forward
// for OnRounds rounds, then discard for OffRounds, synchronized across the
// cohort (the classic coordinated on-off attack). It consumes no
// randomness, preserving the tournament stream.
func (m *Model) BeginRound(round int, participants []*game.Player) {
	if m.cfg.OnOff == 0 {
		return
	}
	st := m.allDiscard
	if round%(m.cfg.OnRounds+m.cfg.OffRounds) < m.cfg.OnRounds {
		st = m.allForward
	}
	for _, p := range participants {
		if p.Adv == game.AdvOnOff {
			p.Strategy = st
		}
	}
}

// Barrier reports whether perturbations fire after reproducing generation
// gen (0-based): with interval i, barriers follow generations i-1, 2i-1, …
// — the same phase convention as island migration.
func (m *Model) Barrier(gen int) bool {
	return (gen+1)%m.cfg.Interval == 0
}

// Churn replaces a seeded ChurnRate fraction of the population with naive
// immigrants: each selected slot gets a fresh random genome and a fresh
// node identity. registry is updated in
// place (grown while the ID space has headroom, nil-ing the departed slot
// otherwise), and every live reputation store forgets both the departed
// and the newly issued ID so no stale trust survives the identity change.
// Returns the number of immigrants introduced.
func (m *Model) Churn(pop []ga.Individual, players []*game.Player, registry *[]*game.Player) int {
	if m.cfg.ChurnRate <= 0 || len(players) == 0 {
		return 0
	}
	k := int(math.Round(m.cfg.ChurnRate * float64(len(players))))
	if k <= 0 {
		return 0
	}
	if k > len(players) {
		k = len(players)
	}
	if cap(m.idx) < len(players) {
		m.idx = make([]int, len(players))
		for i := range m.idx {
			m.idx[i] = i
		}
	}
	if cap(m.slots) < k {
		m.slots = make([]int, k)
	}
	slots := m.slots[:k]
	m.scratch = m.r.SampleWithoutReplacement(slots, m.idx[:len(players)], m.scratch)
	touched := m.touched[:0]
	for _, slot := range slots {
		p := players[slot]
		pop[slot] = ga.Individual{Genome: strategy.Random(m.r).Genome()}

		oldID := p.ID
		newID := m.allocID(oldID)
		if newID != oldID {
			reg := *registry
			reg[oldID] = nil
			if int(newID) >= len(reg) {
				reg = append(reg, make([]*game.Player, int(newID)+1-len(reg))...)
				*registry = reg
			}
			reg[newID] = p
			p.ID = newID
			m.free = append(m.free, oldID)
			touched = append(touched, oldID)
		}
		touched = append(touched, newID)
		// The immigrant itself starts with a blank memory.
		p.Rep.Reset()
	}
	m.touched = touched
	// In-place remap, one pass over the registry: every live dense store
	// drops whatever it knew under any touched
	// identity. The generational evaluation happens to reset all stores
	// anyway, but that is the evaluation scheme's policy, not this
	// layer's: the churn contract is that a replaced identity carries no
	// stale trust the moment the barrier completes, whatever the caller
	// runs next.
	for _, q := range *registry {
		if q == nil {
			continue
		}
		for _, id := range touched {
			q.Rep.Forget(id)
		}
	}
	m.ChurnEvents++
	m.Replaced += k
	return k
}

// allocID issues the identity for a joining node: a fresh ID while the
// space has headroom, then the oldest departed ID, and — only if neither
// exists — the departing node's own ID (an in-place identity refresh).
func (m *Model) allocID(old network.NodeID) network.NodeID {
	if m.nextID < m.maxID {
		id := network.NodeID(m.nextID)
		m.nextID++
		m.IDSpaceGrowth++
		return id
	}
	if len(m.free) == 0 {
		return old
	}
	id := m.free[0]
	m.free = m.free[1:]
	return id
}

// Rewire advances the mobility random walk: with probability RewireProb
// the SP↔LP mix drifts by a uniform step in [−RewireStep, +RewireStep],
// clamped to [0,1]. Returns whether the landscape moved (callers then
// install PathMode on their generator).
func (m *Model) Rewire() bool {
	if m.cfg.RewireProb <= 0 || !m.r.Bool(m.cfg.RewireProb) {
		return false
	}
	m.alpha += float64((m.r.Float64()*2 - 1) * m.cfg.RewireStep)
	if m.alpha < 0 {
		m.alpha = 0
	}
	if m.alpha > 1 {
		m.alpha = 1
	}
	m.RewireEvents++
	return true
}

// PathMode returns the blended route-length mode for the current mix.
func (m *Model) PathMode() network.PathMode { return network.MixedPaths(m.alpha) }
