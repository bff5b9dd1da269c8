package qubo

import (
	"math/bits"

	"abs/internal/bitvec"
)

// Phi is the φ function of Eq. (3): φ(0) = +1, φ(1) = −1. Equivalently
// φ(x) = 1 − 2x. It maps a bit to the sign its flip applies to the
// neighbouring Δ values.
func Phi(bit int) int64 { return int64(1 - 2*bit) }

// Energy evaluates Eq. (1) directly in O(n²):
//
//	E(X) = Σ_{i,j} W_ij x_i x_j
//
// with every off-diagonal pair counted twice. This is the naive
// evaluation whose cost motivates the whole paper; the solver uses it
// only to initialize or cross-check, never in the search loop.
func (p *Problem) Energy(x *bitvec.Vector) int64 {
	p.checkLen(x)
	// Only rows with x_i = 1 contribute. Within such a row, the diagonal
	// contributes W_ii once and every W_ij with j > i, x_j = 1
	// contributes twice (once as (i,j), once as (j,i)).
	ones := x.Ones(make([]int, 0, x.OnesCount()))
	var e int64
	for oi, i := range ones {
		row := p.Row(i)
		e += int64(row[i])
		var rowSum int64
		for _, j := range ones[oi+1:] {
			rowSum += int64(row[j])
		}
		e += 2 * rowSum
	}
	return e
}

// Delta evaluates Δ_k(X) = E(flip_k(X)) − E(X) directly in O(n) using
// Eq. (4):
//
//	Δ_k(X) = φ(x_k) · (2 Σ_{i≠k} W_ki x_i + W_kk)
func (p *Problem) Delta(x *bitvec.Vector, k int) int64 {
	p.checkLen(x)
	row := p.Row(k)
	var s int64
	words := x.Words()
	for wi, w := range words {
		base := wi * 64
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			if i != k {
				s += int64(row[i])
			}
			w &= w - 1
		}
	}
	return Phi(x.Bit(k)) * (2*s + int64(row[k]))
}

// DeltaAll fills dst (length n) with Δ_k(X) for every k, in O(n²) total
// — O(n) per neighbour, matching the initialization cost of Algorithm 3.
// dst is a Δ register file, exact in int32 (see maxAbsDelta). It
// allocates when dst is nil or mis-sized.
func (p *Problem) DeltaAll(x *bitvec.Vector, dst []int32) []int32 {
	p.checkLen(x)
	if len(dst) != p.n {
		dst = make([]int32, p.n)
	}
	for k := 0; k < p.n; k++ {
		dst[k] = int32(p.Delta(x, k))
	}
	return dst
}

func (p *Problem) checkLen(x *bitvec.Vector) {
	if x.Len() != p.n {
		panic("qubo: vector length does not match problem size")
	}
}
