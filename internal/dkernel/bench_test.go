package dkernel

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFlipTiles is the kernel-level sibling of qubo's
// BenchmarkFlipCrossover: one full delta-update pass at paper-shape row
// lengths — the production int32 width, the portable int64
// instantiation, and the scalar reference.
func BenchmarkFlipTiles(b *testing.B) {
	for _, n := range []int{1024, 4096, 8192} {
		r := rand.New(rand.NewSource(int64(n)))
		d, row, sgnc := randInputs(r, n)
		d64 := widen(d)
		tmins := make([]int32, n/TileWidth)
		tmins64 := make([]int64, n/TileWidth)
		b.Run(fmt.Sprintf("batched-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				FlipTiles(d, row, sgnc, tmins, i&1 == 1)
			}
		})
		b.Run(fmt.Sprintf("int64-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				FlipTiles(d64, row, sgnc, tmins64, i&1 == 1)
			}
		})
		b.Run(fmt.Sprintf("scalar-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				refFlip(d, row, sgnc, i&1 == 1)
			}
		})
	}
}

func BenchmarkMinVal(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 8192} {
		r := rand.New(rand.NewSource(int64(n)))
		d, _, _ := randInputs(r, n)
		b.Run(fmt.Sprintf("batched-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MinVal(d)
			}
		})
		b.Run(fmt.Sprintf("scalar-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				minValGeneric(d)
			}
		})
	}
}

// BenchmarkRowDot times one energy-recheck row sum at the benchmark's
// dense-2048 row length and at the paper's 32k-bit scale.
func BenchmarkRowDot(b *testing.B) {
	for _, n := range []int{2048, 32768} {
		r := rand.New(rand.NewSource(int64(n)))
		row, c := randCoeffs(r, n)
		b.Run(fmt.Sprintf("dispatched-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * n))
			for i := 0; i < b.N; i++ {
				RowDot(row, c)
			}
		})
		b.Run(fmt.Sprintf("portable-n%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * n))
			for i := 0; i < b.N; i++ {
				rowDotGeneric(row, c)
			}
		})
	}
}
