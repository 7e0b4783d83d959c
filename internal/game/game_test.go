package game

import (
	"math"
	"testing"

	"adhocga/internal/network"
	"adhocga/internal/rng"
	"adhocga/internal/strategy"
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
	if err := NoReputationPayoffs().Validate(); err != nil {
		t.Fatalf("ablation payoffs invalid: %v", err)
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

func TestPlayAllForwardDelivers(t *testing.T) {
	cfg := defaultCfg()
	ps := normals(4, strategy.AllForward())
	src, inters := ps[0], ps[1:]
	delivered := Play(src, inters, cfg, nil)
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
	delivered := Play(src, []*Player{dropper, after}, cfg, nil)
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
	if after.Rep.KnownCount() != 0 {
		t.Error("downstream node learned something it could not observe")
	}
	// The source observed the drop.
	if rate, known := src.Rep.ForwardingRate(1); !known || rate != 0 {
		t.Errorf("source's rate for dropper = %v,%v, want 0,true", rate, known)
	}
	// The source knows nothing about the node after the dropper.
	if src.Rep.Known(2) {
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
	delivered := Play(a, []*Player{b, c, d}, cfg, nil)
	if delivered {
		t.Fatal("delivered through CSN")
	}
	// A updates about B, C (forwarded) and D (dropped).
	for _, tc := range []struct {
		id   network.NodeID
		rate float64
	}{{1, 1}, {2, 1}, {3, 0}} {
		rate, known := a.Rep.ForwardingRate(tc.id)
		if !known || rate != tc.rate {
			t.Errorf("A's rate for %d = %v,%v, want %v,true", tc.id, rate, known, tc.rate)
		}
	}
	// B updates about C and D, not about itself or A.
	if b.Rep.Known(1) || b.Rep.Known(0) {
		t.Error("B has reputation data about itself or the source")
	}
	if rate, known := b.Rep.ForwardingRate(2); !known || rate != 1 {
		t.Errorf("B's rate for C = %v,%v", rate, known)
	}
	if rate, known := b.Rep.ForwardingRate(3); !known || rate != 0 {
		t.Errorf("B's rate for D = %v,%v", rate, known)
	}
	// C updates about B (upstream forwarder) and D (observed drop).
	if rate, known := c.Rep.ForwardingRate(1); !known || rate != 1 {
		t.Errorf("C's rate for B = %v,%v", rate, known)
	}
	if rate, known := c.Rep.ForwardingRate(3); !known || rate != 0 {
		t.Errorf("C's rate for D = %v,%v", rate, known)
	}
	// The dropper D records nothing (Fig 1a shows no update at D).
	if d.Rep.KnownCount() != 0 {
		t.Errorf("dropper recorded %d observations", d.Rep.KnownCount())
	}
}

func TestPlaySuccessAllParticipantsObserve(t *testing.T) {
	cfg := defaultCfg()
	ps := normals(4, strategy.AllForward())
	Play(ps[0], ps[1:], cfg, nil)
	// Every participant (incl. the last intermediate) observes every other
	// intermediate as having forwarded.
	for _, observer := range ps {
		for _, observed := range ps[1:] {
			if observer == observed {
				continue
			}
			rate, known := observer.Rep.ForwardingRate(observed.ID)
			if !known || rate != 1 {
				t.Errorf("player %d rate for %d = %v,%v, want 1,true",
					observer.ID, observed.ID, rate, known)
			}
		}
		if observer.Rep.Known(observer.ID) {
			t.Errorf("player %d observed itself", observer.ID)
		}
		if observer != ps[0] && observer.Rep.Known(ps[0].ID) {
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
	delivered := Play(src, nil, cfg, nil)
	if !delivered {
		t.Fatal("direct contact failed to deliver")
	}
	if src.Acct.SourcePayoff != cfg.Payoffs.SourceSuccess || src.Acct.Events != 1 {
		t.Errorf("source account %+v", src.Acct)
	}
	if src.Rep.KnownCount() != 0 {
		t.Error("direct contact produced reputation data")
	}
}

func TestDecideUsesTrustAndActivity(t *testing.T) {
	cfg := defaultCfg()
	// Strategy: forward only for trust ≥ 2.
	p := NewNormal(9, strategy.ForwardAtOrAbove(strategy.Trust2, strategy.Discard))
	// Unknown source → bit 12 → discard, priced at unknown trust (1).
	dec, tl := p.Decide(5, cfg)
	if dec != strategy.Discard || tl != strategy.Trust1 {
		t.Errorf("unknown source: %v at %v", dec, tl)
	}
	// Source with perfect forwarding record → trust 3 → forward.
	for i := 0; i < 10; i++ {
		p.Rep.Observe(5, true)
	}
	dec, tl = p.Decide(5, cfg)
	if dec != strategy.Forward || tl != strategy.Trust3 {
		t.Errorf("trusted source: %v at %v", dec, tl)
	}
	// Source with terrible record → trust 0 → discard.
	for i := 0; i < 50; i++ {
		p.Rep.Observe(6, false)
	}
	dec, tl = p.Decide(6, cfg)
	if dec != strategy.Discard || tl != strategy.Trust0 {
		t.Errorf("untrusted source: %v at %v", dec, tl)
	}
}

func TestSelfishAlwaysDiscards(t *testing.T) {
	cfg := defaultCfg()
	p := NewSelfish(1)
	// Even a perfectly trusted source gets dropped.
	for i := 0; i < 10; i++ {
		p.Rep.Observe(2, true)
	}
	if dec, _ := p.Decide(2, cfg); dec != strategy.Discard {
		t.Error("selfish node forwarded")
	}
	if p.Type != Selfish || p.Type.String() != "selfish" {
		t.Error("selfish type wrong")
	}
	if Normal.String() != "normal" {
		t.Error("normal type string wrong")
	}
}

func TestResetForGeneration(t *testing.T) {
	p := NewNormal(0, strategy.AllForward())
	p.Rep.Observe(1, true)
	p.Acct.Events = 5
	p.ResetForGeneration()
	if p.Rep.KnownCount() != 0 || p.Acct.Events != 0 {
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

func TestPlayNotifiesRecorder(t *testing.T) {
	cfg := defaultCfg()
	rec := &captureRecorder{}
	src := NewNormal(0, strategy.AllForward())
	drop := NewSelfish(1)
	Play(src, []*Player{drop}, cfg, rec)
	if rec.calls != 1 || rec.src != src || rec.nInters != 1 || rec.firstDrop != 0 {
		t.Errorf("recorder saw %+v", rec)
	}
	ok := normals(3, strategy.AllForward())
	Play(ok[0], ok[1:], cfg, rec)
	if rec.calls != 2 || rec.firstDrop != -1 {
		t.Errorf("recorder after success: %+v", rec)
	}
}

func TestPlayPayoffUsesDecidersTrustLevel(t *testing.T) {
	cfg := defaultCfg()
	src := NewNormal(0, strategy.AllForward())
	inter := NewNormal(1, strategy.AllForward())
	// inter trusts the source at level 3.
	for i := 0; i < 10; i++ {
		inter.Rep.Observe(0, true)
	}
	Play(src, []*Player{inter}, cfg, nil)
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
		delivered := Play(src, inters, cfg, nil)

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
			if p.Rep.Known(p.ID) {
				t.Fatal("self-observation")
			}
		}
	}
}

func BenchmarkPlayDeliveredChain(b *testing.B) {
	cfg := defaultCfg()
	ps := normals(10, strategy.AllForward())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Play(ps[0], ps[1:], cfg, nil)
	}
}

func BenchmarkDecide(b *testing.B) {
	cfg := defaultCfg()
	p := NewNormal(0, strategy.MustParse("010 101 101 111 1"))
	for i := 0; i < 100; i++ {
		p.Rep.Observe(1, i%4 != 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Decide(1, cfg)
	}
}
