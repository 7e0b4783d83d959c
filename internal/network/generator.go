package network

import (
	"fmt"

	"adhocga/internal/rng"
)

// Generator produces the candidate route sets a source sees when it "plays
// its own game" (§6.1): it samples a hop count from the mode's length
// distribution, a number of available alternate paths from Table 3, and
// fills each path with a random destination plus distinct random
// intermediates drawn from the tournament participants.
//
// The generator works on slots: a tournament of n participants is slots
// 0..n-1, and every NodeID in the returned paths is a slot, which the
// caller maps to its participant. So the intermediate pool of each game —
// every slot but src and dst, in order — is a branchless skip mapping over
// the two excluded slots, and is never materialized. A partial
// Fisher–Yates of k steps displaces at most k pool entries; the displaced
// values sit in a pool-indexed side table whose entries count only while
// their stamp equals the current path's epoch, so a path resets the table
// by bumping the epoch. Nothing of pool size is copied per game, and no
// read scans, calls or loads a participant.
//
// A Generator is stateful only through its scratch buffers (to keep the
// per-game allocation count flat) and is not safe for concurrent use; each
// tournament goroutine owns one.
type Generator struct {
	mode PathMode

	// scratch: the shuffle's displaced values (parked[v] is live while
	// stamp[v] == epoch) and the returned paths
	stamp  []uint32
	parked []NodeID
	epoch  uint32
	paths  []Path
}

// NewGenerator returns a Generator for the given mode.
func NewGenerator(mode PathMode) *Generator {
	return &Generator{mode: mode}
}

// SetMode swaps the generator's path mode in place, keeping the scratch
// buffers warm. The dynamics layer calls it at generation barriers when
// the rewiring walk moves the route-length landscape; it must never be
// called mid-tournament.
func (g *Generator) SetMode(mode PathMode) { g.mode = mode }

// Candidates generates the set of available routes for one game among n
// participant slots: all candidates share the source slot src, the
// destination, and the hop count, differing in their intermediates. The
// returned slice and the paths' intermediate slices are owned by the
// Generator and are valid until the next Candidates call; callers that
// retain paths must copy them.
//
// If n is too small for the sampled hop count, the hop count is clamped to
// the largest feasible value (h ≤ n-1, so that the destination plus h-1
// distinct intermediates exist); the paper's tournaments (50 players,
// ≤ 10 hops) never trigger the clamp.
func (g *Generator) Candidates(r *rng.Source, src, n int) []Path {
	if n < 2 {
		panic(fmt.Sprintf("network: need at least 2 participants, have %d", n))
	}
	// Every draw of the game comes from a local copy of the engine, stored
	// back once at the end: the state stays in registers across the
	// whole route instead of being loaded and stored around each draw. The
	// draws and their order are exactly those of the Source calls they
	// replace (Lengths.Sample, Alternates.Sample, then one Intn for the
	// destination and one per shuffle step).
	e := r.Engine()
	var d uint64
	e, d = e.Next()
	hops := g.mode.Lengths.hops(d)
	// Feasibility: destination + (hops-1) intermediates, all distinct, all
	// different from src → need n-1 ≥ hops.
	if hops > n-1 {
		hops = n - 1
	}
	e, d = e.Next()
	count := g.mode.Alternates.count(d, hops)

	// Destination: uniform among the slots except the source, drawn by
	// index arithmetic — equivalent to sampling the order-preserving
	// "everyone but src" list without materializing it.
	e, d = e.Bounded(uint64(n - 1))
	dst := int(d)
	if dst >= src {
		dst++
	}

	// The virtual intermediate pool is every slot except src and dst, in
	// order: virtual index v holds slot skip2(v), where skip2 jumps over
	// the excluded slots p1 < p2. The partial Fisher–Yates below acts on
	// virtual indices with its displacements parked in the epoch-stamped
	// side table, so its draws and sampled intermediates are identical to
	// shuffling a materialized copy of the pool — without building or
	// mutating anything of pool size.
	p1, p2 := min(src, dst), max(src, dst)
	poolLen := n - 2

	k := hops - 1
	if len(g.stamp) < poolLen {
		g.stamp = make([]uint32, poolLen)
		g.parked = make([]NodeID, poolLen)
		g.epoch = 0
	}
	stamp, parked := g.stamp[:poolLen], g.parked[:poolLen]
	if cap(g.paths) < count {
		g.paths = make([]Path, count)
	}
	paths := g.paths[:count]
	for i := range paths {
		// Fill the path in place, field by field: assembling a Path value
		// and copying it in makes the copy reload stores still in flight.
		p := &paths[i]
		p.Src, p.Dst = NodeID(src), NodeID(dst)
		inter := p.Intermediates
		if cap(inter) < k {
			inter = make([]NodeID, k)
		}
		inter = inter[:k]
		p.Intermediates = inter
		// Every path shuffles the pristine pool: a fresh epoch retires the
		// previous path's displacements (a wrapped epoch clears the stamps
		// so no stale one can match).
		g.epoch++
		if g.epoch == 0 {
			clear(g.stamp)
			g.epoch = 1
		}
		ep := g.epoch
		// Partial Fisher–Yates on the virtual pool. Step x of the classic
		// in-place form swaps pool[x] and pool[j] and selects the new
		// pool[x]; position x is never read after step x, so only the
		// value moved to j needs recording.
		for x := 0; x < k; x++ {
			e, d = e.Bounded(uint64(poolLen - x))
			j := x + int(d)
			vj := NodeID(skip2(j, p1, p2))
			if stamp[j] == ep {
				vj = parked[j]
			}
			if j != x {
				vx := NodeID(skip2(x, p1, p2))
				if stamp[x] == ep {
					vx = parked[x]
				}
				stamp[j], parked[j] = ep, vx
			}
			inter[x] = vj
		}
	}
	r.SetEngine(e)
	g.paths = paths
	return paths
}

// skip2 maps a virtual intermediate-pool index to its slot by skipping
// the two excluded slots p1 < p2. Branchless on purpose: v comes from
// a uniform draw, so compares against p1/p2 are unpredictable as
// branches.
func skip2(v, p1, p2 int) int {
	v += int(uint64(int64(p1-v-1)) >> 63)
	return v + int(uint64(int64(p2-v-1))>>63)
}

// UnknownRate is the paper's default forwarding rate assumed for nodes the
// rater has no data about when rating a path (§3.1).
const UnknownRate = 0.5

// SelectBestRated returns the index of the highest of the candidates'
// §3.1 ratings (the product of the intermediates' forwarding rates as
// known to the rater, UnknownRate for unknown ones); ties break uniformly
// at random, reservoir style, in scan order (the paper does not specify
// tie handling). It panics on an empty rating set.
func SelectBestRated(r *rng.Source, ratings []float64) int {
	if len(ratings) == 0 {
		panic("network: SelectBestRated with no candidates")
	}
	bestIdx := 0
	bestRating := ratings[0]
	ties := 1
	for i := 1; i < len(ratings); i++ {
		rating := ratings[i]
		switch {
		case rating > bestRating:
			bestIdx, bestRating, ties = i, rating, 1
		case rating == bestRating:
			// Reservoir-style uniform tie break.
			ties++
			if r.Intn(ties) == 0 {
				bestIdx = i
			}
		}
	}
	return bestIdx
}
