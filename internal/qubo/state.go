package qubo

import (
	"fmt"
	"math"

	"abs/internal/bitvec"
)

// State is the incremental search state of one logical search unit (one
// "CUDA block" in the paper's implementation, §3.2). It owns
//
//   - the current solution X,
//   - its energy E(X),
//   - the full difference vector d where d[k] = Δ_k(X) (Eq. 4), the
//     paper's per-thread register file,
//   - the best solution B found since the last reset and its energy.
//
// Flip applies one bit flip and updates all of the above in O(n) word
// operations using Eq. (6); since each flip evaluates the energy of all
// n neighbours (Eq. 5), the amortized cost per evaluated solution is
// O(1) — Theorem 1.
//
// A State is not safe for concurrent use; each search unit owns one.
type State struct {
	p *Problem
	x *bitvec.Vector
	// delta is the Δ register file, 32-bit as in the paper's kernel
	// (§3.2); maxAbsDelta below shows the width is exact.
	delta []int32
	// energy is E(x). With |W| < 2¹⁵ and n ≤ 2¹⁵ the extreme energy
	// magnitude is ~2·n²·2¹⁵ ≈ 2⁴⁶, well inside int64.
	energy int64

	bestVec *bitvec.Vector
	bestE   int64

	flips uint64 // total accepted flips since construction

	// Batched-kernel state (nil/false on the scalar path): sgnc is the
	// pre-scaled sign register file sgnc[i] = 2·(1−2x_i) that replaces
	// per-flip bit extraction, tmins the per-tile minima scratch. See
	// batched.go and DESIGN.md §14.
	batched bool
	sgnc    []int16
	tmins   []int32
}

// maxAbsDelta bounds |Δ_k| for every supported instance. Eq. (4) sums
// the diagonal weight and 2·(n−1) off-diagonal weights, each at most
// 2¹⁵ in magnitude, so |Δ_k| ≤ 32768·(2n−1), which at n = MaxBits is
// 2,147,450,880. That is below MaxInt32: every Δ fits an int32 register
// exactly, every Eq. (6) update lands on another exact Δ, and MaxInt32
// itself is never a real Δ, so it serves as the excluded-bit sentinel
// of the batched flip.
const maxAbsDelta = 32768 * (2*MaxBits - 1)

// The register width proof, checked by the compiler: the constant
// below is negative, and does not compile, if MaxBits ever grows past
// what an int32 register can hold.
const _ uint = math.MaxInt32 - maxAbsDelta - 1

// NewZeroState returns a State at the all-zero vector, for which
// E(0) = 0 and Δ_i(0) = W_ii (§2.1), initialized in O(n). Starting
// every search unit at 0 and walking to its first target with a straight
// search is what lets the paper claim O(1) search efficiency from the
// very first evaluated solution.
func NewZeroState(p *Problem) *State {
	return newZeroStateMode(p, !denseKernelScalar.Load())
}

// NewState returns a State positioned at x, computing the energy and
// the full Δ vector directly in O(n²). It is used by tests, by the
// baseline solvers, and wherever a search must begin at an arbitrary
// vector without a straight-search walk.
func NewState(p *Problem, x *bitvec.Vector) *State {
	return newStateMode(p, x, !denseKernelScalar.Load())
}

// Problem returns the instance this state searches.
func (s *State) Problem() *Problem { return s.p }

// Energy returns E(X) for the current solution.
func (s *State) Energy() int64 { return s.energy }

// Delta returns Δ_k(X), the energy change if bit k were flipped.
func (s *State) Delta(k int) int64 { return int64(s.delta[k]) }

// Deltas returns the full Δ register file as a shared read-only slice;
// callers (selection policies) must not modify it.
func (s *State) Deltas() []int32 { return s.delta }

// X returns the current solution as a shared read-only vector; callers
// must not mutate it. Use Snapshot for an owned copy.
func (s *State) X() *bitvec.Vector { return s.x }

// Snapshot returns an independent copy of the current solution.
func (s *State) Snapshot() *bitvec.Vector { return s.x.Clone() }

// Flips returns the number of accepted flips applied so far. Each flip
// evaluates the energies of all n neighbours, so the number of evaluated
// solutions — the numerator of the paper's search rate — is Flips() · n.
func (s *State) Flips() uint64 { return s.flips }

// Flip flips bit k, updating E(X) via Eq. (5), every Δ_i via Eq. (6),
// and the best-found solution as in Algorithm 4. O(n) either way: the
// batched path (default) runs the dkernel tile kernel, the scalar path
// the literal per-bit loop; both produce identical observable state.
func (s *State) Flip(k int) {
	if s.batched {
		s.flipBatched(k)
		return
	}
	s.flipScalar(k)
}

// flipScalar is the original per-bit implementation, kept verbatim as
// the bit-for-bit reference the batched kernel is tested against (and
// as the measured baseline of `abs-bench -dense-report`).
func (s *State) flipScalar(k int) {
	n := s.p.n
	row := s.p.w[k*n : (k+1)*n]
	d := s.delta
	words := s.x.Words()

	// φ(x_k) before the flip; Eq. (6) uses pre-flip bit values.
	sk := int32(1 - 2*s.x.Bit(k))
	oldDk := d[k]

	// Update all Δ_i and track the minimum over i ≠ k so the best
	// neighbour of the new solution can be recorded without a second
	// scan. The i == k slot receives a garbage update inside the loop
	// and is overwritten with −Δ_k afterwards (Case 1 of §2.1), so it
	// may harmlessly wrap; every other update lands on an exact Δ and
	// stays inside the int32 range.
	minI, minD := -1, int32(math.MaxInt32)
	for i := 0; i < n; i++ {
		xi := int32(words[uint(i)>>6]>>(uint(i)&63)) & 1
		d[i] += 2 * sk * (1 - 2*xi) * int32(row[i])
		if d[i] < minD && i != k {
			minI, minD = i, d[i]
		}
	}
	d[k] = -oldDk
	s.energy += int64(oldDk)
	s.x.Flip(k)
	s.flips++

	// Best-solution tracking (Algorithm 4): the new solution itself,
	// then its best neighbour flip_i(X′) with energy E(X′)+Δ_i(X′).
	if s.energy < s.bestE {
		s.recordBest(s.x, s.energy)
	}
	if minI >= 0 && s.energy+int64(minD) < s.bestE {
		// Materialize the neighbour lazily; improvements are rare after
		// the initial descent, so the O(n/64) copy does not affect the
		// amortized O(1) efficiency.
		s.recordBestNeighbour(minI, s.energy+int64(minD))
	}
}

func (s *State) recordBest(v *bitvec.Vector, e int64) {
	if s.bestVec == nil {
		s.bestVec = v.Clone()
	} else {
		s.bestVec.CopyFrom(v)
	}
	s.bestE = e
}

func (s *State) recordBestNeighbour(i int, e int64) {
	if s.bestVec == nil {
		s.bestVec = s.x.Clone()
	} else {
		s.bestVec.CopyFrom(s.x)
	}
	s.bestVec.Flip(i)
	s.bestE = e
}

// Best returns the best solution seen since the last reset and its
// energy. ok is false if no solution has been recorded yet. The caller
// receives a private copy.
func (s *State) Best() (x *bitvec.Vector, e int64, ok bool) {
	if s.bestVec == nil || s.bestE == math.MaxInt64 {
		return nil, 0, false
	}
	return s.bestVec.Clone(), s.bestE, true
}

// BestEnergy returns the best energy since the last reset, or
// math.MaxInt64 when none has been recorded.
func (s *State) BestEnergy() int64 { return s.bestE }

// ResetBest forgets the best-found solution (Step 3 of the device loop,
// §3.2), so that each bulk-search iteration publishes a fresh solution
// instead of repeating an old champion — the paper's premature-
// convergence guard.
func (s *State) ResetBest() {
	s.bestE = math.MaxInt64
}

// NoteCurrentAsBest seeds best-tracking with the current solution, used
// after a state is positioned at a meaningful start (e.g. the baseline
// SA solver, Algorithm 2 line 2).
func (s *State) NoteCurrentAsBest() {
	s.recordBest(s.x, s.energy)
}

// CheckConsistency recomputes E(X) and every Δ_k from the weight matrix
// and compares them with the incrementally maintained values. It is the
// test oracle for Eqs. (5)–(6) and costs O(n²).
func (s *State) CheckConsistency() error {
	if e := s.p.Energy(s.x); e != s.energy {
		return fmt.Errorf("qubo: energy drift: incremental %d, direct %d", s.energy, e)
	}
	for k := 0; k < s.p.n; k++ {
		if d := s.p.Delta(s.x, k); d != int64(s.delta[k]) {
			return fmt.Errorf("qubo: delta drift at %d: incremental %d, direct %d",
				k, s.delta[k], d)
		}
	}
	if s.batched {
		for i := 0; i < s.p.n; i++ {
			if want := int16(2 - 4*s.x.Bit(i)); s.sgnc[i] != want {
				return fmt.Errorf("qubo: sign register drift at %d: %d, want %d",
					i, s.sgnc[i], want)
			}
		}
	}
	return nil
}
