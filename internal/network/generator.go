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
// A Generator is stateful only through its scratch buffers (to keep the
// per-game allocation count flat) and is not safe for concurrent use; each
// tournament goroutine owns one.
//
// The intermediate pool of each game — participants minus src and dst,
// order-preserving — is never materialized: reads go straight to the
// participants slice through a branchless skip mapping over the two
// excluded positions. A partial Fisher–Yates of k steps displaces at most
// k pool entries; the displaced values sit in a pool-indexed side table
// whose entries count only while their stamp equals the current path's
// epoch, so a path resets the table by bumping the epoch and participants
// is never touched. Every read is one stamp compare: nothing of pool size
// is copied per game, and no read scans or calls.
type Generator struct {
	mode PathMode

	// scratch: the shuffle's displaced values (parked[v] is live while
	// stamp[v] == epoch) and the returned paths
	stamp  []uint32
	parked []NodeID
	epoch  uint32
	paths  []Path

	// lastSrcPos remembers where the previous call's source sat in the
	// participants slice. Tournaments iterate sources in participant
	// order, so position lastSrcPos+1 (cyclically) is almost always right
	// and the O(n) scan below is a cold fallback.
	lastSrcPos int
}

// NewGenerator returns a Generator for the given mode.
func NewGenerator(mode PathMode) *Generator {
	return &Generator{mode: mode, lastSrcPos: -1}
}

// Mode returns the generator's path mode.
func (g *Generator) Mode() PathMode { return g.mode }

// SetMode swaps the generator's path mode in place, keeping the scratch
// buffers warm. The dynamics layer calls it at generation barriers when
// the rewiring walk moves the route-length landscape; it must never be
// called mid-tournament.
func (g *Generator) SetMode(mode PathMode) { g.mode = mode }

// Candidates generates the set of available routes for one game: all
// candidates share the same source, destination, and hop count, differing
// in their intermediates. participants must contain src. The returned
// slice and the paths' intermediate slices are owned by the Generator and
// are valid until the next Candidates call; callers that retain paths must
// copy them.
//
// If the participant set is too small for the sampled hop count, the hop
// count is clamped to the largest feasible value (h ≤ len(participants)-1,
// so that the destination plus h-1 distinct intermediates exist); the
// paper's tournaments (50 players, ≤ 10 hops) never trigger the clamp.
func (g *Generator) Candidates(r *rng.Source, src NodeID, participants []NodeID) []Path {
	n := len(participants)
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

	// Destination: uniform among participants except the source, drawn by
	// index arithmetic — equivalent to sampling the order-preserving
	// "everyone but src" list without materializing it.
	srcPos := -1
	guess := g.lastSrcPos + 1
	if guess >= n {
		guess = 0
	}
	if participants[guess] == src {
		srcPos = guess
	} else {
		for i, id := range participants {
			if id == src {
				srcPos = i
				break
			}
		}
	}
	g.lastSrcPos = srcPos
	m := n
	if srcPos >= 0 {
		m = n - 1
	}
	e, d = e.Bounded(uint64(m))
	dstPos := int(d)
	if srcPos >= 0 && dstPos >= srcPos {
		dstPos++
	}
	dst := participants[dstPos]

	// The virtual intermediate pool is everyone except src and dst in
	// participants order: virtual index v holds participants[skip2(v)],
	// where skip2 jumps over the excluded positions p1 < p2. The partial
	// Fisher–Yates below acts on virtual indices with its displacements
	// parked in the epoch-stamped side table, so its draws and sampled
	// intermediates are identical to shuffling a materialized copy of the
	// pool — without building or mutating anything of pool size. With src
	// absent (callers shouldn't, but the old behavior is preserved) only
	// dst is excluded and p2 = n sits beyond every mapped index.
	p1, p2 := srcPos, dstPos
	if p1 > p2 {
		p1, p2 = p2, p1
	}
	poolLen := n - 2
	if srcPos < 0 {
		p1, p2 = dstPos, n
		poolLen = n - 1
	}

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
		p.Src, p.Dst = src, dst
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
			vj := participants[skip2(j, p1, p2)]
			if stamp[j] == ep {
				vj = parked[j]
			}
			if j != x {
				vx := participants[skip2(x, p1, p2)]
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

// skip2 maps a virtual intermediate-pool index to its participants index
// by skipping the two excluded positions p1 < p2 (p2 may sit past the
// slice to disable the second skip). Branchless on purpose: v comes from
// a uniform draw, so compares against p1/p2 are unpredictable as
// branches.
func skip2(v, p1, p2 int) int {
	v += int(uint64(int64(p1-v-1)) >> 63)
	return v + int(uint64(int64(p2-v-1))>>63)
}

// UnknownRate is the paper's default forwarding rate assumed for nodes the
// rater has no data about when rating a path (§3.1).
const UnknownRate = 0.5

// RatePath computes the §3.1 path rating: the product of the forwarding
// rates of all intermediates as known to the rater. rates is the rater's
// dense NodeID-indexed rate view (trust.Store.PathRates): known nodes hold
// their pf/ps, unknown ones UnknownRate; IDs at or beyond len(rates) count
// as unknown.
func RatePath(p Path, rates []float64) float64 {
	rating := 1.0
	for _, id := range p.Intermediates {
		f := UnknownRate
		if int(id) < len(rates) {
			f = rates[id]
		}
		rating *= f
	}
	return rating
}

// SelectBest returns the index of the candidate with the highest rating
// under RatePath; ties break uniformly at random (the paper does not
// specify tie handling). It panics on an empty candidate set.
func SelectBest(r *rng.Source, candidates []Path, rates []float64) int {
	if len(candidates) == 0 {
		panic("network: SelectBest with no candidates")
	}
	bestIdx := 0
	bestRating := RatePath(candidates[0], rates)
	ties := 1
	for i := 1; i < len(candidates); i++ {
		rating := RatePath(candidates[i], rates)
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

// SelectBestRated is SelectBest over precomputed ratings (one per
// candidate, e.g. from trust.Store.RatePaths): the scan order, the
// comparisons, and the tie-break draws are identical, so for equal
// ratings it returns the same index as SelectBest and consumes the same
// random sequence. It panics on an empty rating set.
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
			ties++
			if r.Intn(ties) == 0 {
				bestIdx = i
			}
		}
	}
	return bestIdx
}
