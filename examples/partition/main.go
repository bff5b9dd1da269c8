// Number-partitioning example: a user-level application of the public
// API beyond the paper's own benchmarks. Partition a multiset of
// integers into two halves with minimal difference — one of Karp's 21
// problems (§1 cites the Lucas catalogue of such Ising formulations).
//
// With side difference diff = Σ aᵢ·(1−2xᵢ) = S − 2T (T the sum of the
// x=1 side), diff² = S² + Σᵢ 4aᵢ(aᵢ−S)xᵢ + 8Σ_{i<j} aᵢaⱼxᵢxⱼ, so the
// QUBO with W_ii = 4aᵢ(aᵢ−S) and W_ij = 4aᵢaⱼ satisfies
// E(X) = diff² − S², and minimizing E minimizes the imbalance. The
// program verifies the identity numerically after solving.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"abs"
)

func main() {
	// A multiset with a perfect partition (112 per side). The 16-bit
	// weight domain bounds the encodable magnitudes: the diagonal holds
	// 4·a·(S−a), so a·S must stay under 8192.
	nums := []int64{25, 7, 13, 31, 42, 17, 21, 10, 26, 8, 5, 19}
	var total int64
	for _, a := range nums {
		total += a
	}
	fmt.Printf("partitioning %d numbers, total %d\n", len(nums), total)

	p, offset, err := encodePartition(nums)
	if err != nil {
		log.Fatal(err)
	}

	res, err := abs.SolveForContext(context.Background(), p, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	// diff² = E + offset.
	var left int64
	for i, a := range nums {
		if res.Best.Bit(i) == 0 {
			left += a
		}
	}
	right := total - left
	diff := left - right
	if diff < 0 {
		diff = -diff
	}
	fmt.Printf("sides: %d / %d (difference %d)\n", left, right, diff)
	if got := res.BestEnergy + offset; got != diff*diff {
		log.Fatalf("encoding oracle failed: E+offset = %d, diff² = %d", got, diff*diff)
	}
	fmt.Println("difference² matches the QUBO energy — encoding verified")
}

// encodePartition builds the QUBO whose energy plus the returned offset
// (S²) equals the squared difference between the two sides.
func encodePartition(nums []int64) (*abs.Problem, int64, error) {
	n := len(nums)
	var s int64
	for _, a := range nums {
		s += a
	}
	p := abs.NewProblem(n)
	for i := 0; i < n; i++ {
		wii := 4 * nums[i] * (nums[i] - s)
		if wii < -32768 || wii > 32767 {
			return nil, 0, fmt.Errorf("number %d too large for 16-bit weights", nums[i])
		}
		p.SetWeight(i, i, int16(wii))
		for j := i + 1; j < n; j++ {
			// diff² carries 8·a_i·a_j·x_i·x_j per pair; E counts each
			// off-diagonal weight twice, so W_ij = 4·a_i·a_j.
			wij := 4 * nums[i] * nums[j]
			if wij > 32767 {
				return nil, 0, fmt.Errorf("product of %d and %d too large for 16-bit weights", nums[i], nums[j])
			}
			p.SetWeight(i, j, int16(wij))
		}
	}
	p.SetName("partition")
	// offset: E(X) = diff² − S², so diff² = E + S².
	return p, s * s, nil
}
