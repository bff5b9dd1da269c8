package main

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/qubo"
)

// Quality reference: the median 1-flip steepest-descent local minimum
// over referenceStarts seeded random starts, loosened by referenceMargin
// of its magnitude. The margin leaves room for short serve jobs, whose
// best is sometimes short of a local minimum (down to 0.82 of the
// median seen); random or unsearched vectors stay far above it. The
// descent is the benchmark's own code; it never calls the solver under
// test.
const (
	referenceStarts = 9
	referenceMargin = 0.30
)

// energyOf recomputes E(x) = Σ_ij W_ij x_i x_j through Problem.Weight,
// independently of the solver's incremental bookkeeping.
func energyOf(p *qubo.Problem, x *bitvec.Vector) int64 {
	ones := x.Ones(nil)
	var e int64
	for _, i := range ones {
		for _, j := range ones {
			e += int64(p.Weight(i, j))
		}
	}
	return e
}

// descend runs 1-flip steepest descent from x to a local minimum and
// returns its energy.
func descend(p *qubo.Problem, x []int8) int64 {
	n := p.N()
	delta := make([]int64, n)
	var e int64
	for i := 0; i < n; i++ {
		var s int64
		for j := 0; j < n; j++ {
			if j != i && x[j] == 1 {
				s += int64(p.Weight(i, j))
			}
		}
		if x[i] == 1 {
			e += s + int64(p.Weight(i, i)) // each off-diagonal pair once per endpoint
		}
		delta[i] = int64(1-2*x[i]) * (2*s + int64(p.Weight(i, i)))
	}
	for {
		k := 0
		for i := 1; i < n; i++ {
			if delta[i] < delta[k] {
				k = i
			}
		}
		if delta[k] >= 0 {
			return e
		}
		e += delta[k]
		d := int64(1 - 2*x[k]) // change of x_k
		x[k] ^= 1
		delta[k] = -delta[k]
		for i := 0; i < n; i++ {
			if i != k {
				delta[i] += int64(1-2*x[i]) * 2 * int64(p.Weight(i, k)) * d
			}
		}
	}
}

// reference returns the median descent minimum of p for the given seed
// and the quality reference derived from it: solver results with a
// higher energy than the reference count as failed.
func reference(p *qubo.Problem, seed uint64) (descent, ref int64) {
	r := rand.New(rand.NewPCG(seed, seed>>1|1))
	minima := make([]float64, referenceStarts)
	x := make([]int8, p.N())
	for s := range minima {
		for i := range x {
			x[i] = int8(r.IntN(2))
		}
		minima[s] = float64(descend(p, x))
	}
	descent = int64(median(minima))
	ref = descent
	if ref < 0 {
		ref += int64(referenceMargin * float64(-ref))
	}
	return descent, ref
}

// errWrongEnergy marks a result whose reported energy does not match
// its own solution vector.
var errWrongEnergy = errors.New("reported energy differs from recomputation")

// checkResult reports why a solver result is wrong, or nil.
func checkResult(in *instance, res *core.Result) error {
	if res == nil || res.Best == nil {
		return errors.New("no result")
	}
	if res.Best.Len() != in.p.N() {
		return fmt.Errorf("solution has %d bits, instance %d", res.Best.Len(), in.p.N())
	}
	if e := energyOf(in.p, res.Best); e != res.BestEnergy {
		return fmt.Errorf("%w: reported %d, x·W·x = %d", errWrongEnergy, res.BestEnergy, e)
	}
	if res.BestEnergy > in.ref {
		return fmt.Errorf("best energy %d worse than quality reference %d", res.BestEnergy, in.ref)
	}
	return nil
}
