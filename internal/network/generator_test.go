package network

import (
	"math"
	"testing"

	"adhocga/internal/rng"
)

// hopsOf returns the hop count of a path (number of edges).
func hopsOf(p Path) int { return len(p.Intermediates) + 1 }

func TestCandidatesInvariants(t *testing.T) {
	r := rng.New(7)
	g := NewGenerator(ShorterPaths())
	for trial := 0; trial < 2000; trial++ {
		src := r.Intn(50)
		paths := g.Candidates(r, src, 50)
		if len(paths) < 1 || len(paths) > MaxAlternatePaths {
			t.Fatalf("%d candidate paths", len(paths))
		}
		hops := hopsOf(paths[0])
		if hops < MinHops || hops > MaxHops {
			t.Fatalf("hop count %d", hops)
		}
		dst := paths[0].Dst
		for _, p := range paths {
			if p.Src != NodeID(src) {
				t.Fatalf("path source %d, want %d", p.Src, src)
			}
			if p.Dst != dst {
				t.Fatal("candidates disagree on destination")
			}
			if hopsOf(p) != hops {
				t.Fatal("candidates disagree on hop count")
			}
			if p.Dst == NodeID(src) {
				t.Fatal("destination equals source")
			}
			seen := map[NodeID]bool{NodeID(src): true, p.Dst: true}
			for _, id := range p.Intermediates {
				if seen[id] {
					t.Fatalf("duplicate or src/dst node %d in intermediates %v", id, p.Intermediates)
				}
				seen[id] = true
				if int(id) < 0 || int(id) >= 50 {
					t.Fatalf("intermediate %d outside the slots", id)
				}
			}
		}
	}
}

// referenceCandidates is the route sampler written the direct way: each
// draw through the Source, the destination picked from a materialized
// "everyone but src" list of slots, and every path a partial Fisher–Yates
// over its own copy of the pool.
func referenceCandidates(r *rng.Source, mode PathMode, src NodeID, n int) []Path {
	hops := min(mode.Lengths.hops(r.Uint64()), n-1)
	count := mode.Alternates.count(r.Uint64(), hops)
	var others []NodeID
	for id := NodeID(0); id < NodeID(n); id++ {
		if id != src {
			others = append(others, id)
		}
	}
	dst := others[r.Intn(len(others))]
	var pool []NodeID
	for _, id := range others {
		if id != dst {
			pool = append(pool, id)
		}
	}
	paths := make([]Path, count)
	for i := range paths {
		shuffled := append([]NodeID(nil), pool...)
		inter := make([]NodeID, hops-1)
		for x := range inter {
			j := x + r.Intn(len(shuffled)-x)
			shuffled[x], shuffled[j] = shuffled[j], shuffled[x]
			inter[x] = shuffled[x]
		}
		paths[i] = Path{Src: src, Dst: dst, Intermediates: inter}
	}
	return paths
}

// Candidates keeps the engine in registers and never builds the pool, yet
// must make exactly the reference's draws and pick exactly its routes:
// both modes, sources in and out of turn, and sets small enough to clamp
// the hop count.
func TestCandidatesMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		mode PathMode
		n    int
	}{{ShorterPaths(), 50}, {LongerPaths(), 50}, {LongerPaths(), 5}, {MixedPaths(0.4), 12}, {ShorterPaths(), 2}} {
		g := NewGenerator(tc.mode)
		r, ref := rng.New(uint64(tc.n)), rng.New(uint64(tc.n))
		pick := rng.New(99)
		for game := 0; game < 3000; game++ {
			src := game % tc.n
			if game%7 == 0 {
				src = pick.Intn(tc.n)
			}
			got := g.Candidates(r, src, tc.n)
			want := referenceCandidates(ref, tc.mode, NodeID(src), tc.n)
			if len(got) != len(want) {
				t.Fatalf("%s n=%d game %d: %d paths, reference %d", tc.mode.Name, tc.n, game, len(got), len(want))
			}
			for i := range got {
				if got[i].String() != want[i].String() {
					t.Fatalf("%s n=%d game %d path %d: %v, reference %v", tc.mode.Name, tc.n, game, i, got[i], want[i])
				}
			}
			if r.Uint64() != ref.Uint64() {
				t.Fatalf("%s n=%d game %d: stream position differs from the reference", tc.mode.Name, tc.n, game)
			}
		}
	}
}

func TestCandidatesClampsHopsForSmallSets(t *testing.T) {
	r := rng.New(8)
	g := NewGenerator(LongerPaths())
	for trial := 0; trial < 500; trial++ {
		paths := g.Candidates(r, 0, 5) // max feasible hops = 4
		for _, p := range paths {
			if hopsOf(p) > 4 {
				t.Fatalf("hop count %d exceeds feasibility for 5 participants", hopsOf(p))
			}
		}
	}
}

func TestCandidatesPanicsOnTinySet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 1 participant")
		}
	}()
	g := NewGenerator(ShorterPaths())
	g.Candidates(rng.New(1), 0, 1)
}

func TestCandidatesHopFrequenciesFollowMode(t *testing.T) {
	r := rng.New(9)
	g := NewGenerator(ShorterPaths())
	counts := map[int]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[hopsOf(g.Candidates(r, 0, 50)[0])]++
	}
	d := ShorterPathLengths()
	for hops := MinHops; hops <= MaxHops; hops++ {
		got := float64(counts[hops]) / draws
		if math.Abs(got-d.Prob(hops)) > 0.01 {
			t.Errorf("hop %d frequency %v, want %v", hops, got, d.Prob(hops))
		}
	}
}

func TestSelectBestPicksHighestRating(t *testing.T) {
	r := rng.New(10)
	for i := 0; i < 100; i++ {
		if got := SelectBestRated(r, []float64{0.1, 0.9, 0.45}); got != 1 {
			t.Fatalf("SelectBestRated = %d, want 1", got)
		}
	}
}

func TestSelectBestUniformTieBreak(t *testing.T) {
	r := rng.New(11)
	ratings := []float64{UnknownRate, UnknownRate, UnknownRate} // equal ratings
	counts := make([]int, 3)
	const draws = 30000
	for i := 0; i < draws; i++ {
		counts[SelectBestRated(r, ratings)]++
	}
	for i, c := range counts {
		got := float64(c) / draws
		if math.Abs(got-1.0/3.0) > 0.02 {
			t.Errorf("tie-broken choice %d frequency %v, want 1/3", i, got)
		}
	}
}

func TestSelectBestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SelectBestRated(rng.New(1), nil)
}

func BenchmarkCandidates(b *testing.B) {
	r := rng.New(1)
	g := NewGenerator(ShorterPaths())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Candidates(r, i%50, 50)
	}
}
