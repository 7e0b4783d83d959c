// Package bitstring implements the fixed-length binary genomes evolved by
// the genetic algorithm: the paper's 13-bit forwarding strategies (§3.3)
// and the 5-bit IPDRP strategies of Namikawa and Ishibuchi that the model
// generalizes.
//
// Genomes are small (≤ 64 bits throughout this repository) but the package
// supports arbitrary lengths so the genetic operators can be tested
// property-style on random widths.
package bitstring

import (
	"fmt"
	"math/bits"
	"strings"

	"adhocga/internal/rng"
)

// Bits is a fixed-length bit vector. Index 0 is the first bit, matching the
// paper's bit numbering ("bit no. 0-11", Fig 1c). The zero value is the
// empty bit string.
//
// Bits values share no state after Clone and the genetic operators always
// return fresh vectors, so a Bits can be used as a map key via Compact().
type Bits struct {
	n int
	w []uint64
}

// New returns an all-zero bit string of length n. It panics if n < 0.
func New(n int) Bits {
	if n < 0 {
		panic("bitstring: negative length")
	}
	return Bits{n: n, w: make([]uint64, (n+63)/64)}
}

// Random returns a uniformly random bit string of length n.
func Random(r *rng.Source, n int) Bits {
	b := New(n)
	b.FillRandom(r)
	return b
}

// FillRandom overwrites b with uniformly random bits in place, drawing
// exactly as Random(r, b.Len()) does — one Uint64 per word. It is the
// reuse primitive for re-randomizing a population without reallocating
// its genomes.
func (b Bits) FillRandom(r *rng.Source) {
	for i := range b.w {
		b.w[i] = r.Uint64()
	}
	b.maskTail()
}

// Parse decodes a string of '0' and '1' characters; spaces are ignored so
// the paper's grouped notation ("010 101 101 111 1") parses directly.
func Parse(s string) (Bits, error) {
	cleaned := strings.ReplaceAll(s, " ", "")
	b := New(len(cleaned))
	for i, c := range cleaned {
		switch c {
		case '0':
		case '1':
			b.Set(i, true)
		default:
			return Bits{}, fmt.Errorf("bitstring: invalid character %q at position %d", c, i)
		}
	}
	return b, nil
}

// MustParse is Parse that panics on malformed input; for literals in tests
// and tables.
func MustParse(s string) Bits {
	b, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return b
}

// maskTail clears the unused bits of the last word so that Equal and
// Compact can compare words directly.
func (b *Bits) maskTail() {
	if b.n%64 != 0 && len(b.w) > 0 {
		b.w[len(b.w)-1] &= (uint64(1) << (uint64(b.n) % 64)) - 1
	}
}

// Len returns the number of bits.
func (b Bits) Len() int { return b.n }

// Get reports whether bit i is set. It panics if i is out of range.
func (b Bits) Get(i int) bool {
	b.check(i)
	return b.w[i/64]&(1<<(uint64(i)%64)) != 0
}

// Set assigns bit i. It panics if i is out of range.
func (b Bits) Set(i int, v bool) {
	b.check(i)
	if v {
		b.w[i/64] |= 1 << (uint64(i) % 64)
	} else {
		b.w[i/64] &^= 1 << (uint64(i) % 64)
	}
}

func (b Bits) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitstring: index %d out of range [0,%d)", i, b.n))
	}
}

// Clone returns an independent copy.
func (b Bits) Clone() Bits {
	c := Bits{n: b.n, w: make([]uint64, len(b.w))}
	copy(c.w, b.w)
	return c
}

// Hamming returns the number of positions at which b and o differ. It
// panics if the lengths differ.
func (b Bits) Hamming(o Bits) int {
	if b.n != o.n {
		panic("bitstring: Hamming distance of unequal lengths")
	}
	d := 0
	for i := range b.w {
		d += bits.OnesCount64(b.w[i] ^ o.w[i])
	}
	return d
}

// String renders the bits as a '0'/'1' string, bit 0 first.
func (b Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Compact returns a canonical comparable key for the bit string. Two Bits
// have equal Compact values iff they have the same length and bits.
func (b Bits) Compact() string { return b.String() }

// GroupString renders the bits in space-separated groups of the given
// sizes, e.g. GroupString(3,3,3,3,1) reproduces the paper's strategy
// notation. Remaining bits after the listed groups form a final group.
func (b Bits) GroupString(sizes ...int) string {
	var sb strings.Builder
	i := 0
	for _, size := range sizes {
		if i >= b.n {
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		for j := 0; j < size && i < b.n; j++ {
			if b.Get(i) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
			i++
		}
	}
	if i < b.n {
		if i > 0 {
			sb.WriteByte(' ')
		}
		for ; i < b.n; i++ {
			if b.Get(i) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
	}
	return sb.String()
}
