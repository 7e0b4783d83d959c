package tournament

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"adhocga/internal/game"
	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
	"adhocga/internal/trust"
)

// This file keeps the per-player evaluation path the slot-indexed board
// replaced, as an executable reference: every player owns a
// NodeID-indexed store with a lazily flushed trust-level cache, games are
// played player by player (refPlay, refDecide), routes are drawn over
// NodeIDs and rated store by store, and gossip merges store into store.
// The goldens were generated from this code. FuzzEvaluateMatchesReference
// runs whole evaluation passes through both paths and demands
// bit-identical results.
//
// Route sampling delegates its draws to network.Generator (pinned by
// network's own direct-form reference) and maps the slots it returns back
// to NodeIDs; everything else here — the trust table, activity, the
// route-rating product, the tie-breaking selection, decisions, payoffs,
// observations and gossip — is written out independently.

// refRecord is one pair's counters plus the cached Fig 1b level derived
// from them, flushed lazily at the next decision.
type refRecord struct {
	requests, forwards uint32
	level              strategy.TrustLevel
	dirty              bool
}

// refStore is one player's reputation memory in the per-player path.
type refStore struct {
	rec         []refRecord
	known       int
	forwardsSum uint64
	table       [3]float64
}

// refLevel is the Fig 1b lookup: boundary rates belong to the higher
// level.
func refLevel(th [3]float64, rate float64) strategy.TrustLevel {
	switch {
	case rate >= th[0]:
		return strategy.Trust3
	case rate >= th[1]:
		return strategy.Trust2
	case rate >= th[2]:
		return strategy.Trust1
	}
	return strategy.Trust0
}

func (s *refStore) ensureSize(n int) {
	for len(s.rec) < n {
		s.rec = append(s.rec, refRecord{})
	}
}

func (s *refStore) reset() {
	clear(s.rec)
	s.known, s.forwardsSum = 0, 0
}

func (r *refRecord) rate() float64 { return float64(r.forwards) / float64(r.requests) }

// setTable installs a trust table, recomputing every cached level when it
// changes.
func (s *refStore) setTable(th [3]float64) {
	if th == s.table {
		return
	}
	s.table = th
	for i := range s.rec {
		if r := &s.rec[i]; r.requests > 0 {
			r.level, r.dirty = refLevel(th, r.rate()), false
		}
	}
}

// observePath records one game's observations: ids[j] forwarded unless
// j == firstDrop; the observer's own entry is skipped.
func (s *refStore) observePath(ids []network.NodeID, self network.NodeID, firstDrop int) {
	for j, id := range ids {
		if id == self {
			continue
		}
		s.ensureSize(int(id) + 1)
		r := &s.rec[id]
		if r.requests == 0 {
			s.known++
		}
		r.requests++
		r.dirty = true
		if j != firstDrop {
			r.forwards++
			s.forwardsSum++
		}
	}
}

// ratePaths is the §3.1 rating of every candidate: the product of the
// intermediates' forwarding rates, UnknownRate for unknown ones.
func (s *refStore) ratePaths(paths []network.Path) []float64 {
	ratings := make([]float64, len(paths))
	for i, p := range paths {
		rating := 1.0
		for _, id := range p.Intermediates {
			f := network.UnknownRate
			if int(id) < len(s.rec) && s.rec[id].requests > 0 {
				f = s.rec[id].rate()
			}
			rating *= f
		}
		ratings[i] = rating
	}
	return ratings
}

// evaluate returns the cached trust level (flushing it if dirty) and the
// §3.2 activity of src, and whether src is known.
func (s *refStore) evaluate(src network.NodeID, band float64) (strategy.TrustLevel, strategy.ActivityLevel, bool) {
	if int(src) >= len(s.rec) || s.rec[src].requests == 0 {
		return 0, 0, false
	}
	r := &s.rec[src]
	if r.dirty {
		r.level, r.dirty = refLevel(s.table, r.rate()), false
	}
	av := float64(s.forwardsSum) / float64(s.known)
	srcF := float64(r.forwards)
	act := strategy.ActivityMedium
	switch {
	case srcF < av-float64(band*av):
		act = strategy.ActivityLow
	case srcF > av+float64(band*av):
		act = strategy.ActivityHigh
	}
	return r.level, act, true
}

// merge imports src's favorable observations about third parties at the
// given weight; a liar's (invert) counters are inverted first.
func (s *refStore) merge(self network.NodeID, src *refStore, minRate, weight float64, invert bool) {
	if weight <= 0 {
		return
	}
	for id := range src.rec {
		rec := src.rec[id]
		if network.NodeID(id) == self || rec.requests == 0 {
			continue
		}
		forwards := uint64(rec.forwards)
		if invert {
			forwards = uint64(rec.requests) - forwards
		}
		if float64(forwards)/float64(rec.requests) < minRate {
			continue
		}
		addReq := uint64(math.Round(float64(rec.requests) * weight))
		if addReq == 0 {
			addReq = 1
		}
		addFwd := min(uint64(math.Round(float64(forwards)*weight)), addReq)
		s.ensureSize(id + 1)
		dst := &s.rec[id]
		if dst.requests == 0 {
			s.known++
		}
		newReq := min(uint64(dst.requests)+addReq, math.MaxUint32)
		newFwd := min(uint64(dst.forwards)+addFwd, math.MaxUint32)
		s.forwardsSum += newFwd - uint64(dst.forwards)
		dst.requests, dst.forwards = uint32(newReq), uint32(newFwd)
		dst.dirty = true
	}
}

// refWorld is the reference's state: its own copies of the players (for
// accounts and strategies) and one refStore per NodeID.
type refWorld struct {
	registry []*game.Player
	stores   []*refStore
}

// refDecide is the per-player forwarding decision and the trust level
// that prices it.
func (w *refWorld) refDecide(p *game.Player, src network.NodeID, cfg *game.Config) (strategy.Decision, strategy.TrustLevel) {
	if cfg.BlindDecisions {
		return p.Strategy.DecideUnknown(), cfg.UnknownTrust
	}
	st := w.stores[p.ID]
	st.setTable(cfg.TrustTable.Thresholds)
	tl, act, known := st.evaluate(src, cfg.ActivityBand)
	if !known {
		return p.Strategy.DecideUnknown(), cfg.UnknownTrust
	}
	return p.Strategy.Decide(tl, act), tl
}

// refPlay is one game, player by player (Fig 1a, DESIGN.md).
func (w *refWorld) refPlay(src *game.Player, inters []*game.Player, ids []network.NodeID, cfg *game.Config, rec game.Recorder) {
	firstDrop := -1
	for i, node := range inters {
		dec, tl := w.refDecide(node, src.ID, cfg)
		node.Acct.Events++
		if dec == strategy.Forward {
			node.Acct.ForwardPayoff += cfg.Payoffs.Forward[tl]
			node.Acct.Forwards++
			continue
		}
		node.Acct.DiscardPayoff += cfg.Payoffs.Discard[tl]
		node.Acct.Discards++
		firstDrop = i
		break
	}
	src.Acct.Events++
	src.Acct.Sent++
	if firstDrop < 0 {
		src.Acct.SourcePayoff += cfg.Payoffs.SourceSuccess
		src.Acct.Delivered++
	} else {
		src.Acct.SourcePayoff += cfg.Payoffs.SourceFailure
	}
	last, upTo := len(inters)-1, len(inters)-1
	if firstDrop >= 0 {
		last, upTo = firstDrop, firstDrop-1 // the dropper records nothing
	}
	w.stores[src.ID].observePath(ids[:last+1], src.ID, firstDrop)
	for i := 0; i <= upTo; i++ {
		w.stores[inters[i].ID].observePath(ids[:last+1], inters[i].ID, firstDrop)
	}
	if rec != nil {
		rec.RecordGame(src, inters, firstDrop)
	}
}

// refSelectBest picks the highest rating, breaking ties uniformly at
// random, reservoir style, in scan order.
func refSelectBest(r *rng.Source, ratings []float64) int {
	best, ties := 0, 1
	for i := 1; i < len(ratings); i++ {
		switch {
		case ratings[i] > ratings[best]:
			best, ties = i, 1
		case ratings[i] == ratings[best]:
			ties++
			if r.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// refCandidates draws src's candidate routes over the participants'
// NodeIDs: the generator's slots are positions in participants.
func refCandidates(r *rng.Source, gen *network.Generator, src network.NodeID, participants []network.NodeID) []network.Path {
	srcPos := -1
	for i, id := range participants {
		if id == src {
			srcPos = i
		}
	}
	slots := gen.Candidates(r, srcPos, len(participants))
	paths := make([]network.Path, len(slots))
	for i, p := range slots {
		inter := make([]network.NodeID, len(p.Intermediates))
		for j, x := range p.Intermediates {
			inter[j] = participants[x]
		}
		paths[i] = network.Path{Src: src, Dst: participants[p.Dst], Intermediates: inter}
	}
	return paths
}

// refTournament is PlayWith on the per-player path.
func (w *refWorld) refTournament(participants []*game.Player, cfg *Config, gen *network.Generator, r *rng.Source, rec game.Recorder) {
	ids := make([]network.NodeID, len(participants))
	for i, p := range participants {
		ids[i] = p.ID
		w.stores[p.ID].ensureSize(len(w.registry))
		w.stores[p.ID].setTable(cfg.Game.TrustTable.Thresholds)
	}
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.RoundDriver != nil {
			cfg.RoundDriver.BeginRound(round, participants)
		}
		for _, src := range participants {
			paths := refCandidates(r, gen, src.ID, ids)
			best := 0
			if cfg.PathChoice == RandomPath {
				best = r.Intn(len(paths))
			} else if len(paths) > 1 {
				best = refSelectBest(r, w.stores[src.ID].ratePaths(paths))
			}
			path := paths[best]
			inters := make([]*game.Player, len(path.Intermediates))
			for i, id := range path.Intermediates {
				inters[i] = w.registry[id]
			}
			w.refPlay(src, inters, path.Intermediates, &cfg.Game, rec)
		}
		if cfg.GossipInterval > 0 && (round+1)%cfg.GossipInterval == 0 {
			w.refGossip(participants, cfg, r)
		}
	}
}

// refGossip is one gossip round on the per-player stores.
func (w *refWorld) refGossip(participants []*game.Player, cfg *Config, r *rng.Source) {
	var pool []*game.Player
	for _, p := range participants {
		if p.Type == game.Normal {
			pool = append(pool, p)
		}
	}
	receivers := len(pool)
	for _, p := range participants {
		if p.Adv == game.AdvLiar {
			pool = append(pool, p)
		}
	}
	if receivers == 0 || len(pool) < 2 {
		return
	}
	for _, p := range pool[:receivers] {
		peer := pool[r.Intn(len(pool))]
		for peer == p {
			peer = pool[r.Intn(len(pool))]
		}
		w.stores[p.ID].merge(p.ID, w.stores[peer.ID], cfg.GossipMinRate, cfg.GossipWeight, peer.Adv == game.AdvLiar)
	}
}

// refEvaluate is the Fig 3 evaluation pass (EvaluateWithAdversaries) on
// the per-player path. The caller has validated cfg.
func (w *refWorld) refEvaluate(normals, csn, byz []*game.Player, cfg *EvalConfig, gen *network.Generator, r *rng.Source, rec Recorder) {
	for _, group := range [][]*game.Player{normals, csn, byz} {
		for _, p := range group {
			w.stores[p.ID].ensureSize(len(w.registry))
			w.stores[p.ID].reset()
			p.Acct.Reset()
		}
	}
	plays := make([]int, len(normals))
	for envIdx, env := range cfg.Environments {
		if rec != nil {
			rec.BeginEnvironment(envIdx, env)
		}
		pi := cfg.TournamentSize - env.CSN - len(byz)
		clear(plays)
		for {
			var unplayed, played []int
			for i, n := range plays {
				if n < cfg.PlaysPerEnv {
					unplayed = append(unplayed, i)
				} else {
					played = append(played, i)
				}
			}
			if len(unplayed) == 0 {
				break
			}
			var participants []*game.Player
			seat := func(from []int, k int) {
				pick := make([]int, k)
				r.SampleWithoutReplacement(pick, from, nil)
				for _, idx := range pick {
					participants = append(participants, normals[idx])
					plays[idx]++
				}
			}
			if len(unplayed) >= pi {
				seat(unplayed, pi)
			} else {
				for _, idx := range unplayed {
					participants = append(participants, normals[idx])
					plays[idx]++
				}
				if fill := min(pi-len(unplayed), len(played)); fill > 0 {
					seat(played, fill)
				}
			}
			participants = append(participants, csn[:env.CSN]...)
			participants = append(participants, byz...)
			w.refTournament(participants, &cfg.Tournament, gen, r, rec)
		}
	}
}

// traceRecorder fingerprints every game an evaluation plays — source,
// route and first dropper — and counts normal-sourced games and
// deliveries per environment, the numerator and denominator of the
// per-environment cooperation level.
type traceRecorder struct {
	env       int
	games     []int
	delivered []int
	hash      uint64
}

func (t *traceRecorder) BeginEnvironment(index int, env Environment) {
	t.env = index
	t.games = append(t.games, 0)
	t.delivered = append(t.delivered, 0)
}

func (t *traceRecorder) RecordGame(src *game.Player, inters []*game.Player, firstDrop int) {
	h := fnv.New64a()
	fmt.Fprint(h, t.hash, t.env, src.ID, firstDrop)
	for _, p := range inters {
		fmt.Fprint(h, ",", p.ID)
	}
	t.hash = h.Sum64()
	if src.Type == game.Normal {
		t.games[t.env]++
		if firstDrop < 0 {
			t.delivered[t.env]++
		}
	}
}

// onOffDriver runs the coordinated on-off attack: AdvOnOff players
// forward for on rounds, then discard for off rounds.
type onOffDriver struct{ on, off int }

func (d onOffDriver) BeginRound(round int, participants []*game.Player) {
	st := strategy.AllDiscard()
	if round%(d.on+d.off) < d.on {
		st = strategy.AllForward()
	}
	for _, p := range participants {
		if p.Adv == game.AdvOnOff {
			p.Strategy = st
		}
	}
}

// fuzzShape decodes a fuzz input into an evaluation configuration and a
// population; every byte read past the end is 0.
type fuzzShape struct {
	b []byte
}

func (f *fuzzShape) next(n int) int {
	if len(f.b) == 0 {
		return 0
	}
	v := int(f.b[0]) % n
	f.b = f.b[1:]
	return v
}

// population is one side's players: normals, the CSN pool, the Byzantine
// cohort and the registry over all of them.
type population struct {
	normals, csn, byz, registry []*game.Player
}

// clone copies the players' identities, types and strategies with fresh
// accounts and stores.
func (p population) clone() population {
	cp := func(ps []*game.Player) []*game.Player {
		out := make([]*game.Player, len(ps))
		for i, q := range ps {
			out[i] = &game.Player{ID: q.ID, Type: q.Type, Adv: q.Adv, Strategy: q.Strategy, Rep: trust.NewStore()}
		}
		return out
	}
	c := population{normals: cp(p.normals), csn: cp(p.csn), byz: cp(p.byz)}
	c.registry = BuildRegistry(c.normals, c.csn, c.byz)
	return c
}

// decodeShape builds the evaluation configuration and population a fuzz
// input describes: population, tournament size, rounds, CSN per
// environment (up to T−1), path mode, activity band, trust table, unknown
// trust, blind decisions, random path choice, gossip with liars, and the
// on-off and free-rider cohorts.
func decodeShape(seed uint64, raw []byte) (*EvalConfig, population) {
	f := &fuzzShape{b: raw}
	pop := 2 + f.next(99)
	size := 2 + f.next(49)
	envs := make([]Environment, 1+f.next(4))
	maxCSN := 0
	for i := range envs {
		csn := max(f.next(size), size-pop) // never more normal seats than players
		envs[i] = Environment{Name: fmt.Sprintf("E%d", i), CSN: csn}
		maxCSN = max(maxCSN, csn)
	}
	cfg := &EvalConfig{
		TournamentSize: size,
		PlaysPerEnv:    1 + f.next(2),
		Environments:   envs,
		Tournament: Config{
			Rounds: 1 + f.next(10),
			Mode:   network.ShorterPaths(),
			Game:   game.DefaultConfig(),
		},
	}
	flags := f.next(16)
	tc := &cfg.Tournament
	if flags&1 != 0 {
		tc.Mode = network.LongerPaths()
	}
	tc.Game.BlindDecisions = flags&2 != 0
	if flags&4 != 0 {
		tc.PathChoice = RandomPath
	}
	if flags&8 != 0 {
		tc.Game.TrustTable = trust.Table{Thresholds: [3]float64{0.8, 0.5, 0.2}}
	}
	tc.Game.ActivityBand = []float64{0.2, 0.1, 0.3, 0.05, 0.5, 0}[f.next(6)]
	tc.Game.UnknownTrust = strategy.TrustLevel(f.next(strategy.NumTrustLevels))
	tc.GossipInterval = f.next(4)
	tc.GossipWeight = []float64{0.25, 0.1, 0.5, 1, 0.01}[f.next(5)]
	tc.GossipMinRate = []float64{0.5, 0, 0.3, 0.9}[f.next(4)]
	liars, riders, onOff := f.next(3), f.next(3), f.next(3)
	on, off := 1+f.next(3), 1+f.next(3)
	for liars+riders+onOff > size-maxCSN-1 {
		switch {
		case onOff > 0:
			onOff--
		case riders > 0:
			riders--
		default:
			liars--
		}
	}
	if onOff > 0 {
		tc.RoundDriver = onOffDriver{on: on, off: off}
	}

	r := rng.New(seed)
	var p population
	for i := 0; i < pop; i++ {
		p.normals = append(p.normals, game.NewNormal(network.NodeID(i), strategy.Random(r)))
	}
	id := network.NodeID(pop)
	for range maxCSN {
		p.csn = append(p.csn, game.NewSelfish(id))
		id++
	}
	for _, c := range []struct {
		n   int
		adv game.Adversary
		s   strategy.Strategy
	}{{riders, game.AdvFreeRider, strategy.AllDiscard()}, {liars, game.AdvLiar, strategy.AllForward()}, {onOff, game.AdvOnOff, strategy.AllForward()}} {
		for range c.n {
			p.byz = append(p.byz, game.NewByzantine(id, c.adv, c.s))
			id++
		}
	}
	p.registry = BuildRegistry(p.normals, p.csn, p.byz)
	return cfg, p
}

// compareWithReference runs passes evaluation passes of one shape through
// EvaluateWithAdversaries and through refEvaluate, from the same seed, and
// fails on the first difference: a player's account (fitness compared by
// its float bits), the per-environment game counts and trace, a store's
// counters or totals, or the RNG position after the pass.
func compareWithReference(t *testing.T, seed uint64, raw []byte, passes int) {
	t.Helper()
	cfg, fast := decodeShape(seed, raw)
	ref := fast.clone()
	if err := cfg.Validate(len(fast.normals)); err != nil {
		t.Skip(err)
	}
	world := &refWorld{registry: ref.registry, stores: make([]*refStore, len(ref.registry))}
	for i := range world.stores {
		world.stores[i] = &refStore{}
	}
	var es EvalState
	gen, refGen := network.NewGenerator(cfg.Tournament.Mode), network.NewGenerator(cfg.Tournament.Mode)
	r, refR := rng.New(seed+1), rng.New(seed+1)
	for pass := 0; pass < passes; pass++ {
		var got, want traceRecorder
		if err := es.EvaluateWithAdversaries(fast.normals, fast.csn, fast.byz, fast.registry, cfg, gen, r, &got); err != nil {
			t.Fatal(err)
		}
		world.refEvaluate(ref.normals, ref.csn, ref.byz, cfg, refGen, refR, &want)

		for i, p := range fast.registry {
			q := ref.registry[i]
			if math.Float64bits(p.Acct.Fitness()) != math.Float64bits(q.Acct.Fitness()) || p.Acct != q.Acct {
				t.Fatalf("pass %d: player %d account %+v, reference %+v", pass, p.ID, p.Acct, q.Acct)
			}
			st := world.stores[i]
			known, fsum := p.Rep.Totals()
			if known != st.known || fsum != st.forwardsSum {
				t.Fatalf("pass %d: player %d totals %d/%d, reference %d/%d", pass, p.ID, known, fsum, st.known, st.forwardsSum)
			}
			for id := range st.rec {
				c := p.Rep.Counters(network.NodeID(id))
				if c.Requests != st.rec[id].requests || c.Forwards != st.rec[id].forwards {
					t.Fatalf("pass %d: player %d's record of %d = %d/%d, reference %d/%d",
						pass, p.ID, id, c.Forwards, c.Requests, st.rec[id].forwards, st.rec[id].requests)
				}
			}
		}
		if fmt.Sprint(got.games, got.delivered) != fmt.Sprint(want.games, want.delivered) {
			t.Fatalf("pass %d: per-environment games/delivered %v/%v, reference %v/%v",
				pass, got.games, got.delivered, want.games, want.delivered)
		}
		if got.hash != want.hash {
			t.Fatalf("pass %d: the games played differ from the reference's", pass)
		}
		if r.Uint64() != refR.Uint64() {
			t.Fatalf("pass %d: RNG position differs from the reference's", pass)
		}
	}
}

// FuzzEvaluateMatchesReference pins the slot-indexed kernel to the
// per-player reference over whole evaluation passes.
func FuzzEvaluateMatchesReference(f *testing.F) {
	// pop, T, envs, CSN…, rounds, plays, flags, band, unknown trust,
	// gossip interval, weight, min rate, liars, free-riders, on-off, on,
	// off.
	f.Add(uint64(1), []byte{28, 18, 2, 0, 5, 6, 0, 0, 0, 0, 1})
	f.Add(uint64(2), []byte{20, 12, 3, 0, 11, 6, 9, 1, 1, 1, 1, 0, 2, 0, 0, 2, 1, 2, 1, 1})
	f.Add(uint64(3), []byte{29, 23, 1, 22, 7, 1, 0, 2, 2, 3, 0, 0, 0, 0, 0})
	f.Add(uint64(4), []byte{10, 8, 2, 3, 7, 9, 0, 6, 5, 0, 1, 1, 1, 2, 2, 2, 0, 1})
	f.Add(uint64(5), []byte{25, 20, 2, 10, 0, 9, 1, 12, 2, 3, 2, 2, 3, 2, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte) {
		compareWithReference(t, seed, shape, 2)
	})
}

// TestEvaluateMatchesReferenceAtPaperShape runs the reference comparison
// at the paper's tournament size and environments (T = 50, TE1–TE4), with
// and without gossip.
func TestEvaluateMatchesReferenceAtPaperShape(t *testing.T) {
	for _, gossip := range []byte{0, 2} {
		// pop 100, T 50, 4 environments (0, 10, 25, 30 CSN), 8 rounds, L=1,
		// SP, band 0.2, unknown trust 1.
		compareWithReference(t, 2007, []byte{98, 48, 3, 0, 10, 25, 30, 7, 0, 0, 0, 1, gossip, 0, 0}, 1)
	}
}
