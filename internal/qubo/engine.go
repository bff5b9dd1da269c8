package qubo

import "abs/internal/bitvec"

// Engine is the contract between a search unit's incremental state and
// the search algorithms: the Δ register file, the energy, flips, and
// best-solution tracking of Algorithm 4. Two implementations exist:
//
//   - *State — dense: every flip updates all n deltas in O(n), exactly
//     the paper's GPU kernel.
//   - *SparseState — adjacency-based: a flip of bit k touches only the
//     deltas of k's neighbours in the weight graph, O(deg(k)). On
//     sparse instances (G-set graphs have average degree ≈ 5–50 at
//     densities of 0.1–2 %) this multiplies the flip rate by n/deg.
//     The paper's fully-connected kernel cannot exploit this; it is
//     the kind of application-tailored algorithm the paper's "future
//     work" section calls for.
//
// Engines are not safe for concurrent use; each search unit owns one.
type Engine interface {
	// N returns the number of variables.
	N() int
	// Energy returns E(X) of the current solution.
	Energy() int64
	// Delta returns Δ_k(X); Deltas returns the full Δ register file as
	// a shared read-only slice. Registers are int32, exact for every
	// supported instance size (see maxAbsDelta).
	Delta(k int) int64
	Deltas() []int32
	// Flip flips bit k, maintaining energy, deltas and the best-found
	// solution.
	Flip(k int)
	// Flips returns the number of flips applied.
	Flips() uint64
	// EvaluatedPerFlip returns how many candidate solutions one flip
	// evaluates on average — n for the dense engine (Eq. 5 applied to
	// every neighbour), 1+avg-degree for the sparse engine. Search-rate
	// accounting multiplies flips by this.
	EvaluatedPerFlip() float64
	// X returns the current solution (shared, read-only); Snapshot an
	// owned copy.
	X() *bitvec.Vector
	Snapshot() *bitvec.Vector
	// Best returns the best solution since the last reset.
	Best() (x *bitvec.Vector, e int64, ok bool)
	BestEnergy() int64
	ResetBest()
	NoteCurrentAsBest()
}

// Compile-time checks.
var (
	_ Engine = (*State)(nil)
	_ Engine = (*SparseState)(nil)
)

// N implements Engine for the dense state.
func (s *State) N() int { return s.p.n }

// EvaluatedPerFlip implements Engine: the dense kernel evaluates all n
// neighbours per flip (Theorem 1).
func (s *State) EvaluatedPerFlip() float64 { return float64(s.p.n) }
