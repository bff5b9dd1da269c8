// Package search implements the local-search algorithm family of the ABS
// paper (§2): the naive O(n²) search (Algorithm 1), the O(n+n²/m)
// difference search (Algorithm 2), the O(n) tracked search (Algorithm 3),
// the proposed O(1)-efficiency bulk search (Algorithm 4) with pluggable
// bit-selection policies, the straight search between solutions
// (Algorithm 5), and simulated-annealing acceptance (Eq. 7).
package search

import (
	"math"

	"abs/internal/dkernel"
	"abs/internal/qubo"
	"abs/internal/rng"
)

// Policy selects the bit to flip next in Algorithm 4's forced-flip loop.
// Implementations may keep internal cursor state; one Policy instance
// belongs to one search unit.
type Policy interface {
	// Select returns the index of the bit to flip given the current
	// search state. It must return a value in [0, state.N()).
	Select(s qubo.Engine) int
}

// OffsetWindow is the paper's RNG-free selection policy (Fig. 2): examine
// the l deltas Δ_a, Δ_{a+1}, ..., Δ_{a+l−1} starting at a moving offset
// a, flip the bit with the minimum Δ, then advance the offset to
// (a+l) mod n. The window length l plays the role of an SA temperature —
// l = n is pure greedy, l = 1 is a deterministic sweep — and different
// search units run different l values, in the spirit of parallel
// tempering (§2.1).
type OffsetWindow struct {
	// L is the window length (number of extracted bits). Values are
	// clamped to [1, n] at selection time.
	L      int
	offset int
}

// NewOffsetWindow returns a policy with window length l starting at
// offset 0.
func NewOffsetWindow(l int) *OffsetWindow { return &OffsetWindow{L: l} }

// Offset exposes the current window start, mostly for tests.
func (p *OffsetWindow) Offset() int { return p.offset }

// Select implements Policy. The circular window is at most two
// contiguous delta segments, each scanned with the batched
// dkernel.MinFirst; the cross-segment fold keeps the first segment on
// ties, so the result is the first minimum in window scan order —
// exactly what the original element-at-a-time loop returned.
func (p *OffsetWindow) Select(s qubo.Engine) int {
	n := s.N()
	l := p.L
	if l < 1 {
		l = 1
	}
	if l > n {
		l = n
	}
	d := s.Deltas()
	start := p.offset % n
	p.offset = (start + l) % n
	if hi := start + l; hi <= n {
		i, _ := dkernel.MinFirst(d[start:hi])
		return start + i
	}
	i1, m1 := dkernel.MinFirst(d[start:])
	i2, m2 := dkernel.MinFirst(d[:start+l-n])
	if m2 < m1 {
		return i2
	}
	return start + i1
}

// Greedy always flips the globally best neighbour (the l = n limit of
// OffsetWindow). It converges fast and gets stuck fast; it exists as a
// policy baseline and for the straight-search endgame.
type Greedy struct{}

// Select implements Policy. A single batched scan; MinFirst's
// first-occurrence semantics preserve the ascending-index tie-break.
func (Greedy) Select(s qubo.Engine) int {
	i, _ := dkernel.MinFirst(s.Deltas())
	return i
}

// RandomBit flips a uniformly random bit regardless of Δ (the l = 1
// temperature limit, maximum exploration).
type RandomBit struct {
	R *rng.Rand
}

// Select implements Policy.
func (p *RandomBit) Select(s qubo.Engine) int {
	return p.R.Intn(s.N())
}

// MetropolisWindow scans a window like OffsetWindow but accepts the
// first examined bit whose flip passes the Metropolis criterion at
// temperature T, falling back to the window minimum when none passes.
// It demonstrates the paper's point that any policy can sit on top of
// the Δ register file ("we can flip arbitrary bits ... with any
// policy, including a greedy algorithm and SA", §1).
type MetropolisWindow struct {
	L      int
	T      float64 // temperature in energy units (k_B t of Eq. 7)
	R      *rng.Rand
	offset int
}

// Select implements Policy. Unlike OffsetWindow this scan cannot be
// batched: the Metropolis draw consumes one RNG value per examined
// bit, so any reordering or early exit would shift the RNG stream and
// change the trajectory.
func (p *MetropolisWindow) Select(s qubo.Engine) int {
	n := s.N()
	l := p.L
	if l < 1 {
		l = 1
	}
	if l > n {
		l = n
	}
	d := s.Deltas()
	best := p.offset % n
	bestD := d[best]
	choice := -1
	for t := 0; t < l; t++ {
		i := p.offset + t
		if i >= n {
			i -= n
		}
		if d[i] < bestD {
			best, bestD = i, d[i]
		}
		if choice < 0 && metropolis(int64(d[i]), p.T, p.R) {
			choice = i
		}
	}
	p.offset = (p.offset + l) % n
	if choice >= 0 {
		return choice
	}
	return best
}

// metropolis implements the acceptance probability of Eq. (7) for an
// energy change delta at temperature t (with k_B folded into t).
func metropolis(delta int64, t float64, r *rng.Rand) bool {
	if delta <= 0 {
		return true
	}
	if t <= 0 {
		return false
	}
	return r.Float64() < math.Exp(-float64(delta)/t)
}

// Run executes Algorithm 4's forced-flip loop for the given number of
// steps: each step asks the policy for a bit and flips it. Best-solution
// tracking lives inside qubo.State (it evaluates all n neighbours per
// flip, Eq. 5), so Run itself has nothing to record. It returns the
// number of flips performed (always steps).
func Run(s qubo.Engine, steps int, policy Policy) int {
	for i := 0; i < steps; i++ {
		s.Flip(policy.Select(s))
	}
	return steps
}

// RunUntil is Run with cooperative interruption: stop (if non-nil) is
// polled once per step and a true return ends the loop early. It
// returns the number of flips actually performed.
func RunUntil(s qubo.Engine, steps int, policy Policy, stop func() bool) int {
	for i := 0; i < steps; i++ {
		if stop != nil && stop() {
			return i
		}
		s.Flip(policy.Select(s))
	}
	return steps
}
