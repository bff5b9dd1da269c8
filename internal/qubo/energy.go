package qubo

import (
	"math/bits"

	"abs/internal/bitvec"
	"abs/internal/dkernel"
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

// EnergyFrom returns E(x) exactly from a reference vector y whose
// energy ey is known. Because W is symmetric (Validate),
//
//	E(x) − E(y) = (x−y)ᵀW(x+y) = Σ_{i∈D} s_i · Σ_j W_ij (x_j + y_j)
//
// with D = x ⊕ y and s_i = x_i − y_i = 1 − 2y_i: only the |D| rows of
// the differing bits are read, each by one dkernel.RowDot, and there is
// no pairwise term. A nil y is the zero vector (ey must then be 0),
// which makes D the set bits of x: the full evaluation, O(n·|x|). c is
// scratch of length n for the coefficients x_j + y_j. Energy stays the
// independent O(n²) oracle this is tested against.
func (p *Problem) EnergyFrom(x, y *bitvec.Vector, ey int64, c []int16) int64 {
	p.checkLen(x)
	xw, yw := x.Words(), refWords(x, y)
	dkernel.Coeffs(c[:p.n], xw, yw)
	e := ey
	for wi, w := range xw {
		for d := w ^ yw[wi]; d != 0; d &= d - 1 {
			b := bits.TrailingZeros64(d)
			r := dkernel.RowDot(p.Row(wi*64+b), c)
			if w>>uint(b)&1 == 1 {
				e += r
			} else {
				e -= r
			}
		}
	}
	return e
}

// refWords returns the words of EnergyFrom's reference y: y's own, or
// for a nil y the zero vector's, as many as x has. y must be as long
// as x.
func refWords(x, y *bitvec.Vector) []uint64 {
	if y == nil {
		return make([]uint64, len(x.Words()))
	}
	if y.Len() != x.Len() {
		panic("qubo: vector length does not match problem size")
	}
	return y.Words()
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
