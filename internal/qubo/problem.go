// Package qubo defines quadratic unconstrained binary optimization
// problem instances and the energy machinery of the ABS paper.
//
// An instance is an n×n symmetric matrix W of 16-bit weights (§1). The
// objective is an n-bit vector X minimizing the energy
//
//	E(X) = Xᵀ W X = Σ_{0≤i,j<n} W_ij x_i x_j          (Eq. 1)
//
// where the sum runs over all ordered pairs, so each off-diagonal
// weight contributes twice (W_ij + W_ji = 2·W_ij) and diagonal weights
// once. The package provides
//
//   - Problem: the weight matrix with symmetric accessors,
//   - Energy / DeltaAll: direct O(n²) and O(n) evaluation (Eqs. 1, 4),
//   - EnergyFrom: exact E(X) from a reference vector of known energy,
//     reading only the rows of the bits where the two differ,
//   - State: the incremental engine that maintains E(X) and all Δ_k(X)
//     across single-bit flips in O(n) per flip — the mechanism behind the
//     paper's O(1) search efficiency (Eqs. 5–6),
//   - text and binary serialization,
//   - an exact exhaustive solver for small instances (test oracle).
package qubo

import (
	"fmt"
	"math"
)

// MaxBits is the largest supported instance size, matching the paper's
// 32 k-variable limit (§1). The dense weight matrix for a MaxBits
// instance occupies 2 GiB; practical CPU experiments use far fewer bits.
const MaxBits = 32768

// Problem is a QUBO instance: a dense, symmetric n×n matrix of int16
// weights stored row-major. Symmetry (W_ij == W_ji) is an invariant
// maintained by SetWeight/AddWeight and checked by Validate for
// matrices built through FromDense.
type Problem struct {
	n int
	w []int16 // row-major, length n*n
	// name is an optional human-readable instance label ("G22",
	// "berlin52", "rand-4096", ...) carried through I/O and reports.
	name string
}

// New returns an all-zero n-variable problem.
// It panics if n is out of (0, MaxBits].
func New(n int) *Problem {
	if n <= 0 || n > MaxBits {
		panic(fmt.Sprintf("qubo: instance size %d out of range (0, %d]", n, MaxBits))
	}
	return &Problem{n: n, w: make([]int16, n*n)}
}

// FromDense builds a problem from a full matrix. The matrix must be
// square, symmetric, and have entries within int16 range.
func FromDense(m [][]int32) (*Problem, error) {
	n := len(m)
	if n == 0 {
		return nil, fmt.Errorf("qubo: empty matrix")
	}
	if n > MaxBits {
		return nil, fmt.Errorf("qubo: %d variables exceeds limit %d", n, MaxBits)
	}
	p := New(n)
	for i, row := range m {
		if len(row) != n {
			return nil, fmt.Errorf("qubo: row %d has length %d, want %d", i, len(row), n)
		}
		for j, v := range row {
			if v < math.MinInt16 || v > math.MaxInt16 {
				return nil, fmt.Errorf("qubo: weight W[%d][%d]=%d outside 16-bit range", i, j, v)
			}
			if m[j][i] != v {
				return nil, fmt.Errorf("qubo: matrix not symmetric at (%d,%d): %d != %d", i, j, v, m[j][i])
			}
			p.w[i*n+j] = int16(v)
		}
	}
	return p, nil
}

// N returns the number of variables (bits).
func (p *Problem) N() int { return p.n }

// Name returns the instance label, possibly empty.
func (p *Problem) Name() string { return p.name }

// SetName attaches a human-readable label to the instance.
func (p *Problem) SetName(name string) { p.name = name }

// Weight returns W_ij.
func (p *Problem) Weight(i, j int) int16 { return p.w[i*p.n+j] }

// Row returns row k of the weight matrix as a shared slice. Callers must
// not modify it; it exists for the O(n) flip-update hot loop, which
// walks one full row per flip (Eq. 6).
func (p *Problem) Row(k int) []int16 { return p.w[k*p.n : (k+1)*p.n] }

// SetWeight assigns W_ij = W_ji = w, keeping the matrix symmetric.
func (p *Problem) SetWeight(i, j int, w int16) {
	p.w[i*p.n+j] = w
	p.w[j*p.n+i] = w
}

// AddWeight adds w to both W_ij and W_ji (or once to the diagonal when
// i == j). It reports an error on int16 overflow so instance builders
// (e.g. the TSP encoder, which accumulates penalties) can detect that a
// formulation does not fit the 16-bit weight domain.
func (p *Problem) AddWeight(i, j int, w int16) error {
	sum := int32(p.w[i*p.n+j]) + int32(w)
	if sum < math.MinInt16 || sum > math.MaxInt16 {
		return fmt.Errorf("qubo: weight overflow at (%d,%d): %d", i, j, sum)
	}
	p.w[i*p.n+j] = int16(sum)
	if i != j {
		p.w[j*p.n+i] = int16(sum)
	}
	return nil
}

// Validate checks structural invariants (symmetry). Problems mutated
// only through SetWeight/AddWeight always pass.
func (p *Problem) Validate() error {
	for i := 0; i < p.n; i++ {
		for j := i + 1; j < p.n; j++ {
			if p.w[i*p.n+j] != p.w[j*p.n+i] {
				return fmt.Errorf("qubo: asymmetry at (%d,%d): %d != %d",
					i, j, p.w[i*p.n+j], p.w[j*p.n+i])
			}
		}
	}
	return nil
}

// Density returns the fraction of non-zero entries in the upper triangle
// including the diagonal. Synthetic random instances are ~1.0; Max-Cut
// instances from sparse graphs are near the graph density.
func (p *Problem) Density() float64 {
	nz, total := 0, 0
	for i := 0; i < p.n; i++ {
		for j := i; j < p.n; j++ {
			total++
			if p.w[i*p.n+j] != 0 {
				nz++
			}
		}
	}
	return float64(nz) / float64(total)
}

// Clone returns an independent deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{n: p.n, w: make([]int16, len(p.w)), name: p.name}
	copy(q.w, p.w)
	return q
}

// EnergyBound returns a lower bound L and upper bound U such that every
// solution energy lies in [L, U]. The bounds are the sums of negative
// (resp. positive) contributions of every matrix entry and are used to
// size accumulators and sanity-check targets.
func (p *Problem) EnergyBound() (lo, hi int64) {
	for i := 0; i < p.n; i++ {
		for j := i; j < p.n; j++ {
			c := int64(p.w[i*p.n+j])
			if i != j {
				c *= 2
			}
			if c < 0 {
				lo += c
			} else {
				hi += c
			}
		}
	}
	return lo, hi
}
