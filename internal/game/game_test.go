package game

import (
	"math"
	"testing"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
	"adhocga/internal/trust"
)

func defaultCfg() *Config {
	cfg := DefaultConfig()
	return &cfg
}

func normals(n int, s strategy.Strategy) []*Player {
	ps := make([]*Player, n)
	for i := range ps {
		ps[i] = NewNormal(network.NodeID(i), s)
	}
	return ps
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := DefaultPayoffs().Validate(); err != nil {
		t.Fatalf("default payoffs invalid: %v", err)
	}
}

func TestPayoffTableProperties(t *testing.T) {
	p := DefaultPayoffs()
	// §4.2: higher trust → higher forwarding payoff.
	for i := 1; i < strategy.NumTrustLevels; i++ {
		if p.Forward[i] <= p.Forward[i-1] {
			t.Errorf("forward payoff not increasing at level %d: %v", i, p.Forward)
		}
	}
	// Discarding a trusted source must pay less than forwarding for it,
	// and vice versa for untrusted sources — otherwise no dilemma exists.
	if p.Discard[strategy.Trust3] >= p.Forward[strategy.Trust3] {
		t.Error("discarding for trust-3 sources should pay less than forwarding")
	}
	if p.Discard[strategy.Trust0] <= p.Forward[strategy.Trust0] {
		t.Error("discarding for trust-0 sources should pay more than forwarding")
	}
	// §3.3 reading: discarding for "less trusted" (1) pays more than for
	// "untrusted" (0).
	if p.Discard[strategy.Trust1] <= p.Discard[strategy.Trust0] {
		t.Error("discard payoff at trust 1 should exceed trust 0 (paper §4.2)")
	}
}

func TestValidateRejectsBrokenTables(t *testing.T) {
	p := DefaultPayoffs()
	p.SourceSuccess = -1
	if err := p.Validate(); err == nil {
		t.Error("success < failure accepted")
	}
	p = DefaultPayoffs()
	p.Forward[2] = -0.5
	if err := p.Validate(); err == nil {
		t.Error("negative payoff accepted")
	}
	p = DefaultPayoffs()
	p.Forward[3] = 0.1 // breaks monotonicity
	if err := p.Validate(); err == nil {
		t.Error("non-monotone forward payoffs accepted")
	}
	cfg := DefaultConfig()
	cfg.UnknownTrust = strategy.TrustLevel(7)
	if err := cfg.Validate(); err == nil {
		t.Error("invalid unknown trust accepted")
	}
	cfg = DefaultConfig()
	cfg.ActivityBand = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("activity band over 1 accepted")
	}
}

func TestAccountFitnessEq1(t *testing.T) {
	var a Account
	if a.Fitness() != 0 {
		t.Error("empty account fitness should be 0")
	}
	a.SourcePayoff = 5
	a.ForwardPayoff = 2
	a.DiscardPayoff = 3
	a.Events = 4
	if got := a.Fitness(); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("fitness = %v, want 2.5", got)
	}
	a.Reset()
	if a.Events != 0 || a.Fitness() != 0 {
		t.Error("Reset did not clear the account")
	}
}

// play seats src and inters on a fresh board in that order and plays one
// game over the single path through every intermediate, then writes the
// board back to the players. It reports whether the packet was delivered.
func play(src *Player, inters []*Player, cfg *Config) bool {
	b := seat(src, inters)
	firstDrop := playSeated(b, len(inters), cfg)
	b.Save()
	return firstDrop < 0
}

// seat loads src and inters onto a board (slot 0 is src, slot i the i-th
// intermediate), stores sized to cover every ID.
func seat(src *Player, inters []*Player) *Board {
	players := append([]*Player{src}, inters...)
	size := 0
	for _, p := range players {
		size = max(size, int(p.ID)+1)
	}
	var b Board
	b.Load(players, size)
	return &b
}

// chain is the single candidate route from slot 0 through slots 1..k.
func chain(k int) []network.Path {
	inter := make([]network.NodeID, k)
	for i := range inter {
		inter[i] = network.NodeID(i + 1)
	}
	return []network.Path{{Src: 0, Dst: network.NodeID(k + 1), Intermediates: inter}}
}

// playSeated plays slot 0's packet through slots 1..k and returns the
// first dropper's position.
func playSeated(b *Board, k int, cfg *Config) int {
	_, firstDrop := b.Play(0, chain(k), nil, cfg, nil)
	return firstDrop
}

// know makes slot o of the board hold the given counters about slot p.
func know(b *Board, o, p int, c trust.Counters) {
	m := &b.Rep
	old := &m.Cells[o*m.N+p]
	if old.Requests == 0 && c.Requests > 0 {
		m.Known[o]++
	}
	m.ForwardsSum[o] += uint64(c.Forwards) - uint64(old.Forwards)
	*old = c
}

// rateOf returns p's forwarding rate for id and whether p knows id.
func rateOf(p *Player, id network.NodeID) (float64, bool) {
	c := p.Rep.Counters(id)
	if c.Requests == 0 {
		return 0, false
	}
	return c.Rate(), true
}

// knows reports whether p has any data about id.
func knows(p *Player, id network.NodeID) bool { return p.Rep.Counters(id).Requests > 0 }

// knownCount returns the number of nodes p has data about.
func knownCount(p *Player) int {
	known, _ := p.Rep.Totals()
	return known
}

func TestPlayAllForwardDelivers(t *testing.T) {
	cfg := defaultCfg()
	ps := normals(4, strategy.AllForward())
	src, inters := ps[0], ps[1:]
	delivered := play(src, inters, cfg)
	if !delivered {
		t.Fatal("all-forward chain did not deliver")
	}
	// Source: success payoff, one event.
	if src.Acct.SourcePayoff != cfg.Payoffs.SourceSuccess || src.Acct.Events != 1 {
		t.Errorf("source account %+v", src.Acct)
	}
	if src.Acct.Sent != 1 || src.Acct.Delivered != 1 {
		t.Errorf("source counters %+v", src.Acct)
	}
	// Every intermediate forwarded for an unknown source: priced at the
	// unknown trust level (1).
	want := cfg.Payoffs.Forward[strategy.Trust1]
	for i, p := range inters {
		if p.Acct.ForwardPayoff != want || p.Acct.Events != 1 {
			t.Errorf("intermediate %d account %+v", i, p.Acct)
		}
	}
}

func TestPlayFirstIntermediateDrops(t *testing.T) {
	cfg := defaultCfg()
	src := NewNormal(0, strategy.AllForward())
	dropper := NewSelfish(1)
	after := NewNormal(2, strategy.AllForward())
	delivered := play(src, []*Player{dropper, after}, cfg)
	if delivered {
		t.Fatal("packet delivered through a selfish first hop")
	}
	if src.Acct.SourcePayoff != cfg.Payoffs.SourceFailure {
		t.Errorf("source payoff %v, want failure payoff", src.Acct.SourcePayoff)
	}
	// The dropper is paid the discard payoff at unknown trust.
	if dropper.Acct.DiscardPayoff != cfg.Payoffs.Discard[strategy.Trust1] {
		t.Errorf("dropper payoff %v", dropper.Acct.DiscardPayoff)
	}
	// The node after the dropper never saw the packet: no events, no
	// reputation data.
	if after.Acct.Events != 0 {
		t.Errorf("downstream node has %d events", after.Acct.Events)
	}
	if knownCount(after) != 0 {
		t.Error("downstream node learned something it could not observe")
	}
	// The source observed the drop.
	if rate, known := rateOf(src, 1); !known || rate != 0 {
		t.Errorf("source's rate for dropper = %v,%v, want 0,true", rate, known)
	}
	// The source knows nothing about the node after the dropper.
	if knows(src, 2) {
		t.Error("source learned about a node that never received the packet")
	}
}

func TestPlayMidChainDropReputationFlow(t *testing.T) {
	// Fig 1a: A -> B -> C -> D -> E with D dropping. B and C forward.
	cfg := defaultCfg()
	a := NewNormal(0, strategy.AllForward())
	b := NewNormal(1, strategy.AllForward())
	c := NewNormal(2, strategy.AllForward())
	d := NewSelfish(3)
	delivered := play(a, []*Player{b, c, d}, cfg)
	if delivered {
		t.Fatal("delivered through CSN")
	}
	// A updates about B, C (forwarded) and D (dropped).
	for _, tc := range []struct {
		id   network.NodeID
		rate float64
	}{{1, 1}, {2, 1}, {3, 0}} {
		rate, known := rateOf(a, tc.id)
		if !known || rate != tc.rate {
			t.Errorf("A's rate for %d = %v,%v, want %v,true", tc.id, rate, known, tc.rate)
		}
	}
	// B updates about C and D, not about itself or A.
	if knows(b, 1) || knows(b, 0) {
		t.Error("B has reputation data about itself or the source")
	}
	if rate, known := rateOf(b, 2); !known || rate != 1 {
		t.Errorf("B's rate for C = %v,%v", rate, known)
	}
	if rate, known := rateOf(b, 3); !known || rate != 0 {
		t.Errorf("B's rate for D = %v,%v", rate, known)
	}
	// C updates about B (upstream forwarder) and D (observed drop).
	if rate, known := rateOf(c, 1); !known || rate != 1 {
		t.Errorf("C's rate for B = %v,%v", rate, known)
	}
	if rate, known := rateOf(c, 3); !known || rate != 0 {
		t.Errorf("C's rate for D = %v,%v", rate, known)
	}
	// The dropper D records nothing (Fig 1a shows no update at D).
	if knownCount(d) != 0 {
		t.Errorf("dropper recorded %d observations", knownCount(d))
	}
}

func TestPlaySuccessAllParticipantsObserve(t *testing.T) {
	cfg := defaultCfg()
	ps := normals(4, strategy.AllForward())
	play(ps[0], ps[1:], cfg)
	// Every participant (incl. the last intermediate) observes every other
	// intermediate as having forwarded.
	for _, observer := range ps {
		for _, observed := range ps[1:] {
			if observer == observed {
				continue
			}
			rate, known := rateOf(observer, observed.ID)
			if !known || rate != 1 {
				t.Errorf("player %d rate for %d = %v,%v, want 1,true",
					observer.ID, observed.ID, rate, known)
			}
		}
		if knows(observer, observer.ID) {
			t.Errorf("player %d observed itself", observer.ID)
		}
		if observer != ps[0] && knows(observer, ps[0].ID) {
			t.Errorf("player %d has data about the source, which forwarded nothing", observer.ID)
		}
	}
}

func TestPlayDirectContactNoIntermediates(t *testing.T) {
	// A two-player tournament caps every route at one hop, i.e. direct
	// src→dst contact: no intermediates, automatic delivery, no decisions,
	// no reputation.
	cfg := defaultCfg()
	src := NewNormal(0, strategy.AllDiscard()) // even a defector delivers directly
	delivered := play(src, nil, cfg)
	if !delivered {
		t.Fatal("direct contact failed to deliver")
	}
	if src.Acct.SourcePayoff != cfg.Payoffs.SourceSuccess || src.Acct.Events != 1 {
		t.Errorf("source account %+v", src.Acct)
	}
	if knownCount(src) != 0 {
		t.Error("direct contact produced reputation data")
	}
}

// decideOnce plays one game in which decider is the only intermediate,
// after setting what it knows about the source, and returns the decider's
// decision and the payoff it was priced at.
func decideOnce(t *testing.T, decider *Player, known trust.Counters, cfg *Config) (strategy.Decision, float64) {
	t.Helper()
	decider.Acct.Reset()
	src := NewNormal(5, strategy.AllForward())
	b := seat(src, []*Player{decider})
	know(b, 1, 0, known)
	firstDrop := playSeated(b, 1, cfg)
	b.Save()
	if firstDrop < 0 {
		return strategy.Forward, decider.Acct.ForwardPayoff
	}
	return strategy.Discard, decider.Acct.DiscardPayoff
}

func TestDecideUsesTrustAndActivity(t *testing.T) {
	cfg := defaultCfg()
	// Strategy: forward only for trust ≥ 2.
	p := NewNormal(9, strategy.ForwardAtOrAbove(strategy.Trust2, strategy.Discard))
	// Unknown source → bit 12 → discard, priced at unknown trust (1).
	dec, pay := decideOnce(t, p, trust.Counters{}, cfg)
	if dec != strategy.Discard || pay != cfg.Payoffs.Discard[strategy.Trust1] {
		t.Errorf("unknown source: %v at %v", dec, pay)
	}
	// Source with perfect forwarding record → trust 3 → forward.
	dec, pay = decideOnce(t, p, trust.Counters{Requests: 10, Forwards: 10}, cfg)
	if dec != strategy.Forward || pay != cfg.Payoffs.Forward[strategy.Trust3] {
		t.Errorf("trusted source: %v at %v", dec, pay)
	}
	// Source with terrible record → trust 0 → discard.
	dec, pay = decideOnce(t, p, trust.Counters{Requests: 50}, cfg)
	if dec != strategy.Discard || pay != cfg.Payoffs.Discard[strategy.Trust0] {
		t.Errorf("untrusted source: %v at %v", dec, pay)
	}
}

// TestDecideActivityBand: a decider that forwards only low-activity
// sources sees the §3.2 band around the mean pf of everything it knows.
func TestDecideActivityBand(t *testing.T) {
	cfg := defaultCfg()
	// Forward at trust 3 only when the source's activity is LO.
	p := NewNormal(9, strategy.MustParse("000 000 000 100 0"))
	src := NewNormal(5, strategy.AllForward())
	other := NewNormal(7, strategy.AllForward())
	for _, tc := range []struct {
		srcF, otherF uint32
		want         strategy.Decision
	}{
		{4, 16, strategy.Forward}, // av 10, band [8,12]: 4 is LO
		{8, 12, strategy.Discard}, // 8 sits on the inclusive band edge: MI
		{16, 4, strategy.Discard}, // HI
	} {
		p.Acct.Reset()
		b := seat(src, []*Player{p, other})
		know(b, 1, 0, trust.Counters{Requests: tc.srcF, Forwards: tc.srcF})
		know(b, 1, 2, trust.Counters{Requests: tc.otherF, Forwards: tc.otherF})
		path := network.Path{Src: 0, Dst: 2, Intermediates: []network.NodeID{1}}
		_, firstDrop := b.Play(0, []network.Path{path}, nil, cfg, nil)
		b.Save()
		if got := firstDrop < 0; got != (tc.want == strategy.Forward) {
			t.Errorf("source pf %d beside %d: forwarded = %v, want %v", tc.srcF, tc.otherF, got, tc.want)
		}
	}
}

func TestSelfishAlwaysDiscards(t *testing.T) {
	cfg := defaultCfg()
	p := NewSelfish(1)
	// Even a perfectly trusted source gets dropped.
	if dec, _ := decideOnce(t, p, trust.Counters{Requests: 10, Forwards: 10}, cfg); dec != strategy.Discard {
		t.Error("selfish node forwarded")
	}
	if p.Type != Selfish || p.Type.String() != "selfish" {
		t.Error("selfish type wrong")
	}
	if Normal.String() != "normal" {
		t.Error("normal type string wrong")
	}
}

// TestBlindDecisionsHideReputation: under the §4.2 counterfactual every
// source looks unknown, so bit 12 decides at the unknown price.
func TestBlindDecisionsHideReputation(t *testing.T) {
	cfg := defaultCfg()
	cfg.BlindDecisions = true
	p := NewNormal(9, strategy.ForwardAtOrAbove(strategy.Trust2, strategy.Discard))
	dec, pay := decideOnce(t, p, trust.Counters{Requests: 10, Forwards: 10}, cfg)
	if dec != strategy.Discard || pay != cfg.Payoffs.Discard[cfg.UnknownTrust] {
		t.Errorf("blind decision about a trusted source: %v at %v", dec, pay)
	}
}

func TestResetForGeneration(t *testing.T) {
	p := NewNormal(0, strategy.AllForward())
	play(NewNormal(1, strategy.AllForward()), []*Player{p}, defaultCfg())
	play(p, []*Player{NewNormal(1, strategy.AllForward())}, defaultCfg())
	if knownCount(p) == 0 || p.Acct.Events == 0 {
		t.Fatal("setup left the player blank")
	}
	p.ResetForGeneration()
	if knownCount(p) != 0 || p.Acct.Events != 0 {
		t.Error("ResetForGeneration left state behind")
	}
}

type captureRecorder struct {
	src       *Player
	nInters   int
	firstDrop int
	calls     int
}

func (c *captureRecorder) RecordGame(src *Player, inters []*Player, firstDrop int) {
	c.src = src
	c.nInters = len(inters)
	c.firstDrop = firstDrop
	c.calls++
}

// playRecorded plays one game like play, notifying rec.
func playRecorded(src *Player, inters []*Player, cfg *Config, rec Recorder) {
	b := seat(src, inters)
	b.Play(0, chain(len(inters)), nil, cfg, rec)
	b.Save()
}

func TestPlayNotifiesRecorder(t *testing.T) {
	cfg := defaultCfg()
	rec := &captureRecorder{}
	src := NewNormal(0, strategy.AllForward())
	drop := NewSelfish(1)
	playRecorded(src, []*Player{drop}, cfg, rec)
	if rec.calls != 1 || rec.src != src || rec.nInters != 1 || rec.firstDrop != 0 {
		t.Errorf("recorder saw %+v", rec)
	}
	ok := normals(3, strategy.AllForward())
	playRecorded(ok[0], ok[1:], cfg, rec)
	if rec.calls != 2 || rec.firstDrop != -1 {
		t.Errorf("recorder after success: %+v", rec)
	}
}

// bestOf seats a source in slot 0 and every intermediate the paths name,
// gives the source the counters known[i] about slot i+1, and returns the
// candidate Play picks.
func bestOf(known []trust.Counters, paths []network.Path) int {
	cfg := defaultCfg()
	slots := len(known)
	for _, p := range paths {
		for _, x := range p.Intermediates {
			slots = max(slots, int(x))
		}
	}
	b := seat(NewNormal(0, strategy.AllForward()), normals(slots+1, strategy.AllForward())[1:])
	for i, c := range known {
		know(b, 0, i+1, c)
	}
	best, _ := b.Play(0, paths, rng.New(1), cfg, nil)
	return best
}

func path(inters ...network.NodeID) network.Path {
	return network.Path{Src: 0, Dst: 99, Intermediates: inters}
}

// TestPlayRatesPathsByProduct: a route rates the product of its
// intermediates' forwarding rates as the source knows them, an unknown
// intermediate 0.5, and an empty route 1 (nothing can drop).
func TestPlayRatesPathsByProduct(t *testing.T) {
	known := []trust.Counters{{Requests: 10, Forwards: 9}, {Requests: 10, Forwards: 8}} // slots 1, 2
	// 0.9 · 0.8 = 0.72 beats 0.9 · 0.5 (slot 3 unknown) = 0.45.
	if got := bestOf(known, []network.Path{path(1, 3), path(1, 2)}); got != 1 {
		t.Errorf("picked %d, want the 0.72 route", got)
	}
	// 0.45 still beats 0.4 (= 0.8 · 0.5), and loses to the empty route.
	if got := bestOf(known, []network.Path{path(2, 3), path(1, 3)}); got != 1 {
		t.Errorf("picked %d, want the 0.45 route", got)
	}
	if got := bestOf(known, []network.Path{path(1, 2), path()}); got != 1 {
		t.Errorf("picked %d, want the empty route", got)
	}
}

// TestPlayRatesUnknownAtDefaultRate: intermediates the source never
// observed count network.UnknownRate, so 1.0 · 0.5 · 0.5 = 0.25.
func TestPlayRatesUnknownAtDefaultRate(t *testing.T) {
	known := []trust.Counters{{Requests: 1, Forwards: 1}, {Requests: 2, Forwards: 1}, {}, {Requests: 10, Forwards: 5}, {Requests: 10, Forwards: 6}, {Requests: 10, Forwards: 2}}
	// Slots 4·5 rate 0.5 · 0.6 = 0.3 > 0.25.
	if got := bestOf(known, []network.Path{path(1, 2, 3), path(4, 5)}); got != 1 {
		t.Errorf("picked %d, want the 0.3 route over 0.25", got)
	}
	// Slot 6 alone rates 0.2 < 0.25.
	if got := bestOf(known, []network.Path{path(6), path(1, 2, 3)}); got != 1 {
		t.Errorf("picked %d, want the 0.25 route over 0.2", got)
	}
}

// Property: Play picks a highest-rated route, and extending a route can
// never raise its rating, so a route never beats its own prefix.
func TestPlayRatingMonotoneProperty(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.Intn(8)
		known := make([]trust.Counters, k)
		rating := []float64{1, 1} // full route, prefix
		for i := range known {
			f := network.UnknownRate
			if r.Bool(0.8) {
				req := uint32(1 + r.Intn(10))
				known[i] = trust.Counters{Requests: req, Forwards: uint32(r.Intn(int(req) + 1))}
				f = known[i].Rate()
			}
			rating[0] *= f
			if i < k-1 {
				rating[1] *= f
			}
		}
		inters := make([]network.NodeID, k)
		for i := range inters {
			inters[i] = network.NodeID(i + 1)
		}
		if rating[0] > rating[1] {
			t.Fatalf("trial %d: route rates %v above its prefix %v", trial, rating[0], rating[1])
		}
		if got := bestOf(known, []network.Path{path(inters...), path(inters[:k-1]...)}); rating[got] != max(rating[0], rating[1]) {
			t.Fatalf("trial %d: picked route %d rated %v of %v", trial, got, rating[got], rating)
		}
	}
}

func TestPlayPayoffUsesDecidersTrustLevel(t *testing.T) {
	cfg := defaultCfg()
	src := NewNormal(0, strategy.AllForward())
	inter := NewNormal(1, strategy.AllForward())
	// inter trusts the source at level 3.
	b := seat(src, []*Player{inter})
	know(b, 1, 0, trust.Counters{Requests: 10, Forwards: 10})
	playSeated(b, 1, cfg)
	b.Save()
	if inter.Acct.ForwardPayoff != cfg.Payoffs.Forward[strategy.Trust3] {
		t.Errorf("forward payoff %v, want trust-3 price %v",
			inter.Acct.ForwardPayoff, cfg.Payoffs.Forward[strategy.Trust3])
	}
}

// Invariant sweep: random strategies, random chains — events bookkeeping
// and reputation counters must stay consistent.
func TestPlayInvariantsRandomized(t *testing.T) {
	cfg := defaultCfg()
	r := rng.New(77)
	for trial := 0; trial < 2000; trial++ {
		n := r.IntRange(2, 10)
		players := make([]*Player, n)
		for i := range players {
			if r.Bool(0.3) {
				players[i] = NewSelfish(network.NodeID(i))
			} else {
				players[i] = NewNormal(network.NodeID(i), strategy.Random(r))
			}
		}
		src, inters := players[0], players[1:]
		delivered := play(src, inters, cfg)

		totalEvents := src.Acct.Events
		drops := 0
		for _, p := range inters {
			totalEvents += p.Acct.Events
			drops += p.Acct.Discards
		}
		if delivered && drops != 0 {
			t.Fatal("delivered game recorded a drop")
		}
		if !delivered && drops != 1 {
			t.Fatalf("failed game recorded %d drops", drops)
		}
		// Events: 1 for the source + 1 per intermediate that decided.
		decided := 0
		for _, p := range inters {
			decided += p.Acct.Forwards + p.Acct.Discards
		}
		if totalEvents != 1+decided {
			t.Fatalf("event accounting mismatch: %d != %d", totalEvents, 1+decided)
		}
		// Reputation: requests about node j can only come from observers.
		for _, p := range players {
			if knows(p, p.ID) {
				t.Fatal("self-observation")
			}
		}
	}
}

func BenchmarkPlayDeliveredChain(b *testing.B) {
	cfg := defaultCfg()
	ps := normals(10, strategy.AllForward())
	board := seat(ps[0], ps[1:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		playSeated(board, 9, cfg)
	}
}
