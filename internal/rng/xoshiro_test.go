package rng

import (
	"math/bits"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// refEngine is an independent xoshiro256** reference: the state as an
// array and the step written out as in Blackman and Vigna's C code, with
// the bounded draw in Lemire's original threshold-loop form. The engine
// tests replay Xoshiro and Source against it.
type refEngine [4]uint64

func (s *refEngine) next() uint64 {
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

func (s *refEngine) bounded(n uint64) uint64 {
	hi, lo := bits.Mul64(s.next(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.next(), n)
		}
	}
	return hi
}

func (x Xoshiro) ref() refEngine { return refEngine{x.s0, x.s1, x.s2, x.s3} }

// The published xoshiro256** outputs from the state {1, 2, 3, 4}.
func TestXoshiroKnownAnswer(t *testing.T) {
	x := Xoshiro{1, 2, 3, 4}
	want := []uint64{11520, 0, 1509978240, 1215971899390074240, 1216172134540287360, 607988272756665600}
	for i, w := range want {
		var v uint64
		x, v = x.Next()
		if v != w {
			t.Fatalf("output %d = %d, want %d", i, v, w)
		}
	}
	if got, want := x.ref(), (refEngine{0xc060100412050281, 0x706014140a0305, 0xc07030000a040007, 0x60306800100183c1}); got != want {
		t.Fatalf("state after 6 steps = %#x, want %#x", got, want)
	}
}

// boundedCases spans the bounded draws' regimes: trivial, the small
// counts the game kernel draws, a power of two, and n = 2⁶³+1, whose
// rejection threshold (2⁶⁴ − n) mod n = 2⁶³ − 1 rejects about half of
// all draws, so Lemire's redraw loop runs on nearly every call.
var boundedCases = []uint64{1, 2, 3, 7, 47, 48, 50, 1 << 32, 1<<32 + 1, 1 << 63, 1<<63 + 1, 1<<64 - 1}

// Next and Bounded on the value type replay the reference step and the
// reference bounded draw bit for bit, in any interleaving, and leave the
// same state behind.
func TestXoshiroMatchesReference(t *testing.T) {
	rejections := 0
	for seed := uint64(0); seed < 64; seed++ {
		x := New(seed).Engine()
		ref := x.ref()
		for i := 0; i < 200; i++ {
			if i%3 == 0 {
				var v uint64
				x, v = x.Next()
				if want := ref.next(); v != want {
					t.Fatalf("seed %d step %d: Next = %d, reference %d", seed, i, v, want)
				}
				continue
			}
			n := boundedCases[(int(seed)+i)%len(boundedCases)]
			before := x
			var v uint64
			x, v = x.Bounded(n)
			if want := ref.bounded(n); v != want {
				t.Fatalf("seed %d step %d: Bounded(%d) = %d, reference %d", seed, i, n, v, want)
			}
			if v >= n {
				t.Fatalf("Bounded(%d) = %d out of range", n, v)
			}
			if after, _ := before.Next(); after != x {
				rejections++
			}
			if x.ref() != ref {
				t.Fatalf("seed %d step %d: state diverged after Bounded(%d)", seed, i, n)
			}
		}
	}
	if rejections == 0 {
		t.Fatal("no bounded draw was ever rejected; the redraw loop went untested")
	}
}

// Source's draws are the value type's steps: Uint64, Uint64n, Intn,
// Float64, BitMask and a Categorical outcome advance the stream exactly as
// the reference does, and Engine/SetEngine hand the state over intact.
func TestSourceMatchesReference(t *testing.T) {
	c := MustCategorical([]float64{0.2, 0.3, 0.3, 0.05, 0.05, 0.05, 0.05})
	for seed := uint64(0); seed < 32; seed++ {
		s := New(seed)
		ref := s.Engine().ref()
		for i := 0; i < 100; i++ {
			n := boundedCases[i%len(boundedCases)]
			if got, want := s.Uint64(), ref.next(); got != want {
				t.Fatalf("seed %d: Uint64 = %d, reference %d", seed, got, want)
			}
			if got, want := s.Uint64n(n), ref.bounded(n); got != want {
				t.Fatalf("seed %d: Uint64n(%d) = %d, reference %d", seed, n, got, want)
			}
			if got, want := s.Intn(50), int(ref.bounded(50)); got != want {
				t.Fatalf("seed %d: Intn(50) = %d, reference %d", seed, got, want)
			}
			if got, want := s.Float64(), float64(ref.next()>>11)/(1<<53); got != want {
				t.Fatalf("seed %d: Float64 = %v, reference %v", seed, got, want)
			}
			mask := s.BitMask(5, 1<<52)
			for j := 0; j < 5; j++ {
				if bit := ref.next()>>11 < 1<<52; bit != (mask>>j&1 == 1) {
					t.Fatalf("seed %d: BitMask bit %d diverges from the reference", seed, j)
				}
			}
			if got, want := c.Outcome(s.Uint64()), c.scan(scaled(ref.next()>>11, c.cum[len(c.cum)-1])); got != want {
				t.Fatalf("seed %d: Outcome = %d, reference scan %d", seed, got, want)
			}
			e := s.Engine()
			e, _ = e.Next()
			ref.next()
			s.SetEngine(e)
			if s.Engine().ref() != ref {
				t.Fatalf("seed %d step %d: Source state diverged from the reference", seed, i)
			}
		}
	}
}

// TestEngineStepInlines pins what the Xoshiro doc promises: the compiler
// inlines the engine step, the bounded draw and the categorical decision,
// so loops that keep the engine in a local pay no call for a draw.
func TestEngineStepInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the package with -gcflags=-m")
	}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Skipf("cannot compile for inlining diagnostics: %v\n%s", err, out)
	}
	for _, fn := range []string{"Xoshiro.Next", "Xoshiro.Bounded", "(*Categorical).Outcome"} {
		if !strings.Contains(string(out), "can inline "+fn) {
			t.Errorf("%s no longer inlines; compiler diagnostics:\n%s", fn, out)
		}
	}
}
