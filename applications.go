package abs

import (
	"context"
	"fmt"
	"time"

	"abs/internal/bitvec"
	"abs/internal/ising"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/tsp"
)

// Application-level types, re-exported so the paper's three benchmark
// domains are reachable from the public API without touching internal
// packages.
type (
	// Graph is an undirected weighted graph for Max-Cut.
	Graph = maxcut.Graph
	// TSPInstance is a symmetric TSP instance.
	TSPInstance = tsp.Instance
	// IsingModel is a spin model with interactions J and fields h.
	IsingModel = ising.Model
)

// NewGraph returns an empty n-vertex Max-Cut graph.
func NewGraph(n int) *Graph { return maxcut.NewGraph(n) }

// NewIsingModel returns an n-spin Ising model.
func NewIsingModel(n int) *IsingModel { return ising.New(n) }

// RandomTSP returns a deterministic random Euclidean TSP instance.
func RandomTSP(cities int, seed uint64) *TSPInstance { return tsp.RandomEuclidean(cities, seed) }

// MaxCutResult reports a Max-Cut solve.
type MaxCutResult struct {
	// Cut is the achieved cut weight; Side is the indicator vector of
	// one side of the partition.
	Cut  int64
	Side *Vector
	// Run carries the underlying solver result.
	Run *Result
}

// SolveMaxCut formulates the graph with Eq. (17), runs ABS for the
// budget, and returns the best cut found, verified against the graph.
func SolveMaxCut(g *Graph, budget time.Duration) (*MaxCutResult, error) {
	p, err := maxcut.ToQUBO(g)
	if err != nil {
		return nil, err
	}
	res, err := SolveForContext(context.Background(), p, budget)
	if err != nil {
		return nil, err
	}
	cut := maxcut.CutValue(g, res.Best)
	if cut != maxcut.CutFromEnergy(res.BestEnergy) {
		return nil, fmt.Errorf("abs: cut/energy identity violated (internal error)")
	}
	return &MaxCutResult{Cut: cut, Side: res.Best, Run: res}, nil
}

// TSPResult reports a TSP solve.
type TSPResult struct {
	// Tour is a valid city permutation; Length its closed-tour length.
	Tour   []int
	Length int64
	// Valid reports whether the solver's best assignment decoded
	// directly; when false, Tour comes from the best valid assignment
	// seen and Length may be conservative.
	Valid bool
	// Run carries the underlying solver result.
	Run *Result
}

// SolveTSP encodes the instance as a (c−1)²-bit QUBO with the paper's
// 2·maxdist penalties, runs ABS for the budget, and decodes the tour.
// A nearest-neighbour warm start seeds the pool so even short budgets
// return a valid tour.
func SolveTSP(t *TSPInstance, budget time.Duration) (*TSPResult, error) {
	enc, err := tsp.Encode(t)
	if err != nil {
		return nil, err
	}
	warm, err := enc.EncodeTour(tsp.NearestNeighbour(t, 0))
	if err != nil {
		return nil, err
	}
	opt := DefaultOptions()
	opt.MaxDuration = budget
	opt.WarmStarts = []*bitvec.Vector{warm}
	res, err := Solve(enc.Problem(), opt)
	if err != nil {
		return nil, err
	}
	tour, decodeErr := enc.DecodeTour(res.Best)
	valid := decodeErr == nil
	if !valid {
		// Fall back to the warm start, which is always a valid tour.
		tour, err = enc.DecodeTour(warm)
		if err != nil {
			return nil, err
		}
	}
	length, err := t.TourLength(tour)
	if err != nil {
		return nil, err
	}
	return &TSPResult{Tour: tour, Length: length, Valid: valid, Run: res}, nil
}

// IsingResult reports an Ising ground-state search.
type IsingResult struct {
	// Spins is the best spin configuration found; H its Hamiltonian.
	Spins []int8
	H     int64
	// Run carries the underlying solver result.
	Run *Result
}

// SolveIsing converts the model to QUBO (exactly; 2E = H + C), runs ABS
// for the budget, and maps the result back to spins.
func SolveIsing(m *IsingModel, budget time.Duration) (*IsingResult, error) {
	p, c, err := m.ToQUBO()
	if err != nil {
		return nil, err
	}
	res, err := SolveForContext(context.Background(), p, budget)
	if err != nil {
		return nil, err
	}
	spins := ising.SpinsFromBits(res.Best)
	h, err := m.Hamiltonian(spins)
	if err != nil {
		return nil, err
	}
	if 2*res.BestEnergy != h+c {
		return nil, fmt.Errorf("abs: ising identity violated (internal error)")
	}
	return &IsingResult{Spins: spins, H: h, Run: res}, nil
}

// ExactBranchAndBound solves an instance exactly with branch and bound
// (≤ 48 bits; prunes far beyond the 30-bit enumerator's reach on
// structured instances).
func ExactBranchAndBound(p *Problem) (*Vector, int64, error) {
	res, err := qubo.BranchAndBound(p)
	if err != nil {
		return nil, 0, err
	}
	return res.X, res.Energy, nil
}
