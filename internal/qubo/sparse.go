package qubo

import (
	"fmt"
	"math"

	"abs/internal/bitvec"
)

// Sparse is the adjacency-list view of a QUBO instance: for each
// variable, the list of off-diagonal neighbours with non-zero weight,
// plus the diagonal. It shares no storage with the dense Problem and
// is immutable after construction, so any number of search units can
// read it concurrently.
type Sparse struct {
	n    int
	name string
	diag []int16
	// neighbours of i: indices nbrIdx[start[i]:start[i+1]] with weights
	// nbrW at the same positions (CSR layout — one allocation each).
	start  []int32
	nbrIdx []int32
	nbrW   []int16
	// avgDegree is cached for EvaluatedPerFlip.
	avgDegree float64
}

// Sparsify builds the adjacency view of p.
func Sparsify(p *Problem) *Sparse {
	n := p.n
	s := &Sparse{n: n, name: p.name, diag: make([]int16, n), start: make([]int32, n+1)}
	nnz := 0
	for i := 0; i < n; i++ {
		s.diag[i] = p.w[i*n+i]
		row := p.Row(i)
		for j, w := range row {
			if w != 0 && j != i {
				nnz++
			}
		}
		s.start[i+1] = int32(nnz)
	}
	s.nbrIdx = make([]int32, nnz)
	s.nbrW = make([]int16, nnz)
	pos := 0
	for i := 0; i < n; i++ {
		row := p.Row(i)
		for j, w := range row {
			if w != 0 && j != i {
				s.nbrIdx[pos] = int32(j)
				s.nbrW[pos] = w
				pos++
			}
		}
	}
	s.avgDegree = float64(nnz) / float64(n)
	return s
}

// N returns the number of variables.
func (s *Sparse) N() int { return s.n }

// Name returns the instance label.
func (s *Sparse) Name() string { return s.name }

// Degree returns the number of non-zero off-diagonal weights of i.
func (s *Sparse) Degree(i int) int { return int(s.start[i+1] - s.start[i]) }

// AvgDegree returns the mean degree.
func (s *Sparse) AvgDegree() float64 { return s.avgDegree }

// Density returns the off-diagonal non-zero fraction.
func (s *Sparse) Density() float64 {
	if s.n <= 1 {
		return 0
	}
	return s.avgDegree / float64(s.n-1)
}

// Energy computes E(x) directly from the adjacency lists in O(nnz):
// set diagonals once, each off-diagonal pair (i, j) with both bits set
// twice (W_ij + W_ji). The sparse counterpart of Problem.Energy and the
// oracle for the CSR round-trip fuzz test.
func (s *Sparse) Energy(x *bitvec.Vector) int64 {
	if x.Len() != s.n {
		panic("qubo: vector length does not match problem size")
	}
	var e int64
	for i := 0; i < s.n; i++ {
		if x.Bit(i) == 0 {
			continue
		}
		e += int64(s.diag[i])
		for p := s.start[i]; p < s.start[i+1]; p++ {
			j := int(s.nbrIdx[p])
			if j > i && x.Bit(j) == 1 {
				e += 2 * int64(s.nbrW[p])
			}
		}
	}
	return e
}

// DeltaDirect computes Δ_k(x) (Eq. 4) directly from k's neighbour
// list in O(deg k), the sparse counterpart of Problem.Delta.
func (s *Sparse) DeltaDirect(x *bitvec.Vector, k int) int64 {
	var sum int64
	for p := s.start[k]; p < s.start[k+1]; p++ {
		if x.Bit(int(s.nbrIdx[p])) == 1 {
			sum += int64(s.nbrW[p])
		}
	}
	return Phi(x.Bit(k)) * (2*sum + int64(s.diag[k]))
}

// Diag returns the diagonal weight W_kk.
func (s *Sparse) Diag(k int) int16 { return s.diag[k] }

// Neighbours returns bit k's neighbour indices and weights as shared
// read-only CSR segments; callers must not modify them.
func (s *Sparse) Neighbours(k int) ([]int32, []int16) {
	lo, hi := s.start[k], s.start[k+1]
	return s.nbrIdx[lo:hi], s.nbrW[lo:hi]
}

// SparseState is the adjacency-based incremental engine: identical
// update formulas to State (Eqs. 5–6), but a flip of bit k walks only
// k's neighbour list. Best-solution tracking is neighbour-local: the
// candidates considered per flip are the new solution and its
// re-evaluated neighbours (1 + deg(k) solutions), which is what
// EvaluatedPerFlip reports.
type SparseState struct {
	sp     *Sparse
	x      *bitvec.Vector
	delta  []int32 // the Δ register file, exact in int32 (maxAbsDelta)
	energy int64

	bestVec *bitvec.Vector
	bestE   int64
	flips   uint64
}

// NewSparseZeroState returns a SparseState at the all-zero vector
// (E = 0, Δ_i = W_ii), initialized in O(n).
func NewSparseZeroState(sp *Sparse) *SparseState {
	s := &SparseState{
		sp:    sp,
		x:     bitvec.New(sp.n),
		delta: make([]int32, sp.n),
		bestE: math.MaxInt64,
	}
	for i := range s.delta {
		s.delta[i] = int32(sp.diag[i])
	}
	return s
}

// NewSparseState returns a SparseState positioned at x, computing
// energy and deltas from the adjacency lists in O(nnz).
func NewSparseState(sp *Sparse, x *bitvec.Vector) *SparseState {
	if x.Len() != sp.n {
		panic("qubo: vector length does not match problem size")
	}
	s := NewSparseZeroState(sp)
	// Walk from 0 to x; each flip is O(deg). Cheaper than evaluating
	// Eq. (4) per variable and reuses the tested update path.
	for _, k := range x.Ones(nil) {
		s.Flip(k)
	}
	s.flips = 0
	s.bestE = math.MaxInt64
	s.bestVec = nil
	return s
}

// N implements Engine.
func (s *SparseState) N() int { return s.sp.n }

// Energy implements Engine.
func (s *SparseState) Energy() int64 { return s.energy }

// Delta implements Engine.
func (s *SparseState) Delta(k int) int64 { return int64(s.delta[k]) }

// Deltas implements Engine.
func (s *SparseState) Deltas() []int32 { return s.delta }

// Flips implements Engine.
func (s *SparseState) Flips() uint64 { return s.flips }

// EvaluatedPerFlip implements Engine: the new solution plus its
// re-evaluated neighbours.
func (s *SparseState) EvaluatedPerFlip() float64 { return 1 + s.sp.avgDegree }

// X implements Engine.
func (s *SparseState) X() *bitvec.Vector { return s.x }

// Snapshot implements Engine.
func (s *SparseState) Snapshot() *bitvec.Vector { return s.x.Clone() }

// Flip implements Engine in O(deg(k)).
func (s *SparseState) Flip(k int) {
	sp := s.sp
	d := s.delta
	sk := int32(1 - 2*s.x.Bit(k))
	oldDk := d[k]

	lo, hi := sp.start[k], sp.start[k+1]
	minI, minD := -1, int32(math.MaxInt32)
	for p := lo; p < hi; p++ {
		i := int(sp.nbrIdx[p])
		xi := int32(s.x.Bit(i))
		d[i] += 2 * sk * (1 - 2*xi) * int32(sp.nbrW[p])
		if d[i] < minD {
			minI, minD = i, d[i]
		}
	}
	d[k] = -oldDk
	s.energy += int64(oldDk)
	s.x.Flip(k)
	s.flips++

	if s.energy < s.bestE {
		s.recordBest(s.x, s.energy)
	}
	if minI >= 0 && s.energy+int64(minD) < s.bestE {
		s.recordBestNeighbour(minI, s.energy+int64(minD))
	}
}

func (s *SparseState) recordBest(v *bitvec.Vector, e int64) {
	if s.bestVec == nil {
		s.bestVec = v.Clone()
	} else {
		s.bestVec.CopyFrom(v)
	}
	s.bestE = e
}

func (s *SparseState) recordBestNeighbour(i int, e int64) {
	if s.bestVec == nil {
		s.bestVec = s.x.Clone()
	} else {
		s.bestVec.CopyFrom(s.x)
	}
	s.bestVec.Flip(i)
	s.bestE = e
}

// Best implements Engine.
func (s *SparseState) Best() (*bitvec.Vector, int64, bool) {
	if s.bestVec == nil || s.bestE == math.MaxInt64 {
		return nil, 0, false
	}
	return s.bestVec.Clone(), s.bestE, true
}

// BestEnergy implements Engine.
func (s *SparseState) BestEnergy() int64 { return s.bestE }

// ResetBest implements Engine.
func (s *SparseState) ResetBest() { s.bestE = math.MaxInt64 }

// NoteCurrentAsBest implements Engine.
func (s *SparseState) NoteCurrentAsBest() { s.recordBest(s.x, s.energy) }

// CheckConsistency recomputes energy and deltas from the adjacency
// lists and compares; the sparse analogue of State.CheckConsistency.
func (s *SparseState) CheckConsistency() error {
	if e := s.sp.Energy(s.x); e != s.energy {
		return fmt.Errorf("qubo: sparse energy drift: incremental %d, direct %d", s.energy, e)
	}
	for k := 0; k < s.sp.n; k++ {
		if want := s.sp.DeltaDirect(s.x, k); want != int64(s.delta[k]) {
			return fmt.Errorf("qubo: sparse delta drift at %d: incremental %d, direct %d",
				k, s.delta[k], want)
		}
	}
	return nil
}
