// Package strategy implements the paper's 13-bit forwarding strategies
// (§3.3, Fig 1c).
//
// A strategy decides whether an intermediate node forwards or discards a
// packet, given two properties of the packet's source: the trust level the
// deciding node assigns to it (four levels, §3.1) and its activity level
// (three levels, §3.2). Bits 0–11 cover the twelve (trust, activity)
// combinations in the order trust 0 {LO MI HI}, trust 1 {LO MI HI}, trust 2
// {LO MI HI}, trust 3 {LO MI HI}; bit 12 is the decision against an unknown
// node. Bit value 1 means forward ("F"), 0 means discard ("D") — the
// orientation used by the paper's Table 7, whose strategies all end in 1
// because "a decision against an unknown player (last bit) is to forward".
package strategy

import (
	"fmt"

	"adhocga/internal/bitstring"
	"adhocga/internal/rng"
)

// TrustLevel is the discretized trust a node assigns to another node,
// derived from the observed forwarding rate via the trust lookup table of
// Fig 1b. Level 0 is the lowest trust, level 3 the highest.
type TrustLevel uint8

// Trust levels, lowest to highest.
const (
	Trust0 TrustLevel = iota
	Trust1
	Trust2
	Trust3
)

// NumTrustLevels is the number of trust levels in the paper's model.
const NumTrustLevels = 4

// String returns "trust 0" .. "trust 3".
func (t TrustLevel) String() string { return fmt.Sprintf("trust %d", uint8(t)) }

// Valid reports whether the level is one of the four defined levels.
func (t TrustLevel) Valid() bool { return t < NumTrustLevels }

// ActivityLevel is the discretized activity of a source node relative to
// the average activity of all nodes known to the evaluator (§3.2).
type ActivityLevel uint8

// Activity levels: low, medium, high.
const (
	ActivityLow ActivityLevel = iota
	ActivityMedium
	ActivityHigh
)

// NumActivityLevels is the number of activity levels in the paper's model.
const NumActivityLevels = 3

// String returns the paper's "LO"/"MI"/"HI" abbreviations.
func (a ActivityLevel) String() string {
	switch a {
	case ActivityLow:
		return "LO"
	case ActivityMedium:
		return "MI"
	case ActivityHigh:
		return "HI"
	default:
		return fmt.Sprintf("ActivityLevel(%d)", uint8(a))
	}
}

// Valid reports whether the level is one of the three defined levels.
func (a ActivityLevel) Valid() bool { return a < NumActivityLevels }

// Decision is a forwarding decision.
type Decision uint8

// The two possible decisions.
const (
	Discard Decision = iota // "D": drop the packet
	Forward                 // "F": forward the packet
)

// String returns the paper's single-letter notation.
func (d Decision) String() string {
	if d == Forward {
		return "F"
	}
	return "D"
}

// Bits is the genome length of a strategy: 12 (trust, activity) decisions
// plus the unknown-node decision.
const Bits = NumTrustLevels*NumActivityLevels + 1

// UnknownBit is the index of the decision applied to unknown source nodes.
const UnknownBit = Bits - 1

// Strategy is a decision table over (TrustLevel, ActivityLevel) plus an
// unknown-node rule, backed by a 13-bit genome. The zero value is the
// invalid empty strategy; construct with New, Random, Parse, or one of the
// canonical constructors.
type Strategy struct {
	bits bitstring.Bits
}

// New wraps a 13-bit genome as a Strategy. It panics if the genome has the
// wrong length, since that indicates a programming error in the GA wiring.
func New(b bitstring.Bits) Strategy {
	if b.Len() != Bits {
		panic(fmt.Sprintf("strategy: genome has %d bits, want %d", b.Len(), Bits))
	}
	return Strategy{bits: b}
}

// Random returns a uniformly random strategy.
func Random(r *rng.Source) Strategy { return Strategy{bits: bitstring.Random(r, Bits)} }

// Parse decodes the paper's notation, with or without grouping spaces:
// "010 101 101 111 1" or "0101011011111". The groups are trust 0..3 then
// the unknown bit.
func Parse(s string) (Strategy, error) {
	b, err := bitstring.Parse(s)
	if err != nil {
		return Strategy{}, err
	}
	if b.Len() != Bits {
		return Strategy{}, fmt.Errorf("strategy: parsed %d bits, want %d", b.Len(), Bits)
	}
	return Strategy{bits: b}, nil
}

// MustParse is Parse that panics on error, for literals.
func MustParse(s string) Strategy {
	st, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return st
}

// bitIndex maps a (trust, activity) pair to its genome bit. With the Fig 1c
// layout the index is trust*3 + activity; the worked example in §3.3
// (trust 3, activity LO → bit 9) pins this down.
func bitIndex(t TrustLevel, a ActivityLevel) int {
	return int(t)*NumActivityLevels + int(a)
}

// Decide returns the decision for a known source with the given trust and
// activity levels. It panics on invalid levels.
func (s Strategy) Decide(t TrustLevel, a ActivityLevel) Decision {
	if !t.Valid() || !a.Valid() {
		panic(fmt.Sprintf("strategy: invalid levels (%v, %v)", t, a))
	}
	if s.bits.Get(bitIndex(t, a)) {
		return Forward
	}
	return Discard
}

// DecideUnknown returns the decision against an unknown source node
// (bit 12).
func (s Strategy) DecideUnknown() Decision {
	if s.bits.Get(UnknownBit) {
		return Forward
	}
	return Discard
}

// Genome returns a copy of the underlying 13-bit genome.
func (s Strategy) Genome() bitstring.Bits { return s.bits.Clone() }

// Key returns a canonical ungrouped string ("0101011011111") usable as a
// map key. Strategies are equal iff their Keys are equal.
func (s Strategy) Key() string { return s.bits.Compact() }

// pack returns the genome as a 13-bit integer with bit 0 most
// significant, so packed genomes order numerically as their Keys do.
func (s Strategy) pack() uint16 {
	var p uint16
	for i := 0; i < Bits; i++ {
		p <<= 1
		if s.bits.Get(i) {
			p |= 1
		}
	}
	return p
}

// unpack is the inverse of pack.
func unpack(p uint16) Strategy {
	b := bitstring.New(Bits)
	for i := 0; i < Bits; i++ {
		b.Set(i, p&(1<<(Bits-1-i)) != 0)
	}
	return Strategy{bits: b}
}

// String renders the strategy in the paper's grouped notation:
// "010 101 101 111 1".
func (s Strategy) String() string {
	return s.bits.GroupString(NumActivityLevels, NumActivityLevels, NumActivityLevels, NumActivityLevels, 1)
}

// SubStrategy returns the 3-bit decision string for one trust level, the
// unit the paper's Tables 8 and 9 are expressed in (e.g. "111" = always
// forward at that trust level, in activity order LO MI HI).
func (s Strategy) SubStrategy(t TrustLevel) string {
	if !t.Valid() {
		panic(fmt.Sprintf("strategy: invalid trust level %v", t))
	}
	buf := make([]byte, NumActivityLevels)
	for a := 0; a < NumActivityLevels; a++ {
		if s.bits.Get(bitIndex(t, ActivityLevel(a))) {
			buf[a] = '1'
		} else {
			buf[a] = '0'
		}
	}
	return string(buf)
}

// Cooperativeness returns the fraction of the 13 decisions that are
// Forward; 1.0 is the always-forward strategy.
func (s Strategy) Cooperativeness() float64 {
	return float64(s.bits.OneCount()) / float64(Bits)
}

// Equal reports whether two strategies make identical decisions.
func (s Strategy) Equal(o Strategy) bool { return s.bits.Equal(o.bits) }

// AllForward returns the fully cooperative strategy (forward in every
// situation, including unknown sources).
func AllForward() Strategy {
	b := bitstring.New(Bits)
	for i := 0; i < Bits; i++ {
		b.Set(i, true)
	}
	return Strategy{bits: b}
}

// AllDiscard returns the fully selfish strategy. This is the behavior of
// the paper's constantly selfish nodes (CSN, §4.3).
func AllDiscard() Strategy { return Strategy{bits: bitstring.New(Bits)} }

// ForwardAtOrAbove returns a trust-threshold strategy: forward whenever the
// source's trust level is ≥ min, regardless of activity, and apply the
// given unknown-node decision. Used by the baselines and ablations.
func ForwardAtOrAbove(min TrustLevel, unknown Decision) Strategy {
	b := bitstring.New(Bits)
	for t := TrustLevel(0); t < NumTrustLevels; t++ {
		for a := ActivityLevel(0); a < NumActivityLevels; a++ {
			if t >= min {
				b.Set(bitIndex(t, a), true)
			}
		}
	}
	b.Set(UnknownBit, unknown == Forward)
	return Strategy{bits: b}
}
