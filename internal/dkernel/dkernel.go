// Package dkernel is the batched delta-evaluation kernel behind the
// dense flip hot path (ROADMAP item 4): the inner loop of Eq. (6)
// restructured from a per-bit scan into cache-blocked tiles so that a
// whole candidate window is evaluated per pass.
//
// The paper's GPU kernel updates all n deltas per flip and finds the
// minimum in the same sweep; on a CPU the equivalent loop spends most
// of its cycles extracting bit values and mispredicting the running-
// argmin branch. The batched kernel removes both costs:
//
//   - the φ(x_i) = 1−2x_i factors of Eq. (6) are kept as a pre-scaled
//     sign array sgnc[i] = 2·(1−2x_i) ∈ {+2, −2}, so the per-element
//     work is one multiply and one add — no bit extraction;
//   - the update runs over 64-element row tiles and records only each
//     tile's minimum VALUE; the argmin's index (the tie-break) is
//     resolved lazily, once, by rescanning the single winning tile —
//     the reduction cost is amortized across the whole batch instead
//     of being paid per element (cuGenOpt and the GPU-SA-for-QAP work
//     use exactly this batched-delta structure, see PAPERS.md);
//   - the Δ register file is 32-bit, as in the paper's kernel (§3.2),
//     so one AVX2 register holds eight lanes and VPMINSD tracks the
//     running minimum; qubo proves the width exact for every supported
//     instance size.
//
// The primitives are generic over the register width. int32 register
// files run the hand-written AVX2 bodies (flip_avx2_amd64.s) on amd64
// hosts that support them; int64 register files, and every register
// file elsewhere, run the portable Go loops.
//
// Every implementation computes bit for bit what the scalar loop
// computes: the same deltas, the same minimum value, and — because
// tiles are scanned in ascending index order with a strictly-smaller
// comparison — the same first-occurrence tie-break. The agreement
// tests and the qubo-level fuzz target are the evidence.
//
// RowDot (with its operand builder Coeffs) is the one primitive that
// serves the host rather than the flip loop: the weighted row sum the
// ingest gate's exact energy recheck reads once per differing bit.
package dkernel

import (
	"math"
	"unsafe"
)

// TileWidth is the row-tile size of the batched kernel: 64 elements
// keep one tile of int32 deltas (256 B) plus its row slice (128 B) and
// sign slice (128 B) within a few cache lines per stride, and make the
// per-flip tile-minima buffer n/64 entries — small enough that
// scanning it is noise next to the tile pass itself.
const TileWidth = 64

// Delta is the element type of a Δ register file.
type Delta interface{ ~int32 | ~int64 }

// maxOf returns the largest value of T: the minimum of an empty
// segment, and the value that can never win a minimum because every
// real Δ is strictly below it.
func maxOf[T Delta]() T {
	max := int64(math.MaxInt64)
	if unsafe.Sizeof(T(0)) == 4 {
		max = math.MaxInt32
	}
	return T(max)
}

// as32 views an int32-wide register file as []int32 for the assembly
// bodies; ok is false for int64-wide files.
func as32[T Delta](d []T) (d32 []int32, ok bool) {
	if unsafe.Sizeof(T(0)) != 4 {
		return nil, false
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(d))), len(d)), true
}

// FlipTiles applies one flip's delta updates over d in batched tiles:
//
//	d[i] += sign · sgnc[i] · row[i]   sign = −1 if neg
//
// for every i in [0, len(d)), where sgnc carries the pre-scaled φ
// factors (±2, with Eq. (6)'s factor 2 folded in; a 0 entry makes the
// element inert — the sentinel used to exclude the flipped bit). The
// product |sgnc·row| ≤ 2¹⁶ is formed in int32, and every updated
// value must fit T (the caller's width argument). The minimum of each
// complete TileWidth-element tile is written to tmins[t]; the function
// returns the minimum over the ragged tail beyond the last full tile
// (the largest T when the tail is empty).
//
// len(row) and len(sgnc) must equal len(d); len(tmins) must be at
// least len(d)/TileWidth.
func FlipTiles[T Delta](d []T, row []int16, sgnc []int16, tmins []T, neg bool) T {
	nt := len(d) / TileWidth
	if nt > 0 {
		d32, ok := as32(d)
		if ok && hasAccel {
			t32, _ := as32(tmins)
			flipTilesAccel(d32, row, sgnc, t32, nt, neg)
		} else {
			flipTilesGeneric(d[:nt*TileWidth], row, sgnc, tmins, neg)
		}
	}
	return flipTail(d, row, sgnc, nt*TileWidth, neg)
}

// flipTail is the scalar epilogue over [lo, len(d)); it returns the
// minimum of the updated tail values.
func flipTail[T Delta](d []T, row []int16, sgnc []int16, lo int, neg bool) T {
	min := maxOf[T]()
	if neg {
		for i := lo; i < len(d); i++ {
			v := d[i] - T(int32(sgnc[i])*int32(row[i]))
			d[i] = v
			if v < min {
				min = v
			}
		}
	} else {
		for i := lo; i < len(d); i++ {
			v := d[i] + T(int32(sgnc[i])*int32(row[i]))
			d[i] = v
			if v < min {
				min = v
			}
		}
	}
	return min
}

// flipTilesGeneric is the portable tile loop: full tiles only, bounds
// checks hoisted by explicit slice reshaping so the compiler keeps the
// inner body branch-free apart from the running tile minimum.
func flipTilesGeneric[T Delta](d []T, row []int16, sgnc []int16, tmins []T, neg bool) {
	nt := len(d) / TileWidth
	for t := 0; t < nt; t++ {
		lo := t * TileWidth
		dt := d[lo : lo+TileWidth : lo+TileWidth]
		rt := row[lo : lo+TileWidth : lo+TileWidth]
		st := sgnc[lo : lo+TileWidth : lo+TileWidth]
		min := maxOf[T]()
		if neg {
			for i := range dt {
				v := dt[i] - T(int32(st[i])*int32(rt[i]))
				dt[i] = v
				if v < min {
					min = v
				}
			}
		} else {
			for i := range dt {
				v := dt[i] + T(int32(st[i])*int32(rt[i]))
				dt[i] = v
				if v < min {
					min = v
				}
			}
		}
		tmins[t] = min
	}
}

// accelMinLen is the shortest segment the assembly scans accept: one
// full 8-lane vector, so a ragged end can be covered by an overlapping
// final load instead of a scalar epilogue.
const accelMinLen = 8

// MinVal returns the minimum value of d, or the largest T when d is
// empty.
// It is the value half of the window-candidate scan: selection
// policies find the window minimum's VALUE in a batched pass and
// resolve its position with FirstEq only where it is actually needed.
func MinVal[T Delta](d []T) T {
	if d32, ok := as32(d); ok && hasAccel && len(d) >= accelMinLen {
		return T(minValAccel(d32))
	}
	return minValGeneric(d)
}

func minValGeneric[T Delta](d []T) T {
	min := maxOf[T]()
	for _, v := range d {
		if v < min {
			min = v
		}
	}
	return min
}

// FirstEq returns the smallest index i with d[i] == v, or −1. Paired
// with MinVal it reproduces exactly the ascending strictly-smaller
// argmin scan: the first occurrence of the minimum value is the index
// that scan would keep.
func FirstEq[T Delta](d []T, v T) int {
	if d32, ok := as32(d); ok && hasAccel && len(d) >= accelMinLen {
		return firstEqAccel(d32, int32(v))
	}
	return firstEqGeneric(d, v)
}

func firstEqGeneric[T Delta](d []T, v T) int {
	for i, x := range d {
		if x == v {
			return i
		}
	}
	return -1
}

// MinFirst returns the first index attaining the minimum of d and that
// minimum, or (−1, the largest T) when d is empty — the batched
// equivalent of `for i { if d[i] < best }`.
func MinFirst[T Delta](d []T) (int, T) {
	if len(d) == 0 {
		return -1, maxOf[T]()
	}
	v := MinVal(d)
	return FirstEq(d, v), v
}

// RowDot returns Σ_j row[j]·c[j] exactly: the weighted row sum behind
// the ingest gate's energy recheck, where c holds the coefficients
// x_j + y_j ∈ {0, 1, 2} of a vector pair (qubo.Problem.EnergyFrom).
// len(c) must be at least len(row). The AVX2 body multiplies int16
// pairs into int32 lanes (VPMADDWD) over chunks of at most
// rowDotChunk elements and widens each chunk's sum to int64, so no
// lane can overflow for any weights and any c in {0, 1, 2}.
func RowDot(row, c []int16) int64 {
	c = c[:len(row)]
	var s int64
	if hasAccel {
		for len(row) >= rowDotStep {
			m := min(len(row), rowDotChunk) &^ (rowDotStep - 1)
			s += rowDotAccel(row[:m], c[:m])
			row, c = row[m:], c[m:]
		}
	}
	return s + rowDotGeneric(row, c)
}

// rowDotStep is the AVX2 body's stride: two 16-lane int16 vectors.
const rowDotStep = 32

// rowDotChunk bounds one AVX2 call. Each int32 lane of its two
// accumulators collects rowDotChunk/16 products |w·c| ≤ 2·32768 = 2¹⁶,
// and the reduction adds the two accumulators lane-wise before
// widening: rowDotChunk/8 products, 2²⁹ at most. The array length
// below is negative, and the package fails to compile, if a larger
// chunk could overflow.
const rowDotChunk = 1 << 16

var _ [math.MaxInt32 - rowDotChunk/8*(2*32768)]struct{}

func rowDotGeneric(row, c []int16) int64 {
	c = c[:len(row)]
	var s int64
	for j, w := range row {
		s += int64(w) * int64(c[j])
	}
	return s
}

// Coeffs sets c[j] = x_j + y_j ∈ {0, 1, 2} for j in [0, len(c)), where
// x and y are bit vectors packed LSB first into 64-bit words: the
// coefficient operand of RowDot for a vector pair. Four coefficients
// are written per 64-bit store, from a table of nibbles spread into
// int16 lanes; two lanes of at most 1 add without a carry. A c that
// is not 8-byte aligned (a make([]int16, n) slice always is) takes the
// scalar loop throughout.
func Coeffs(c []int16, x, y []uint64) {
	n4 := len(c) &^ 3
	if n4 > 0 && uintptr(unsafe.Pointer(&c[0]))%8 != 0 {
		n4 = 0
	}
	if n4 > 0 {
		c4 := unsafe.Slice((*uint64)(unsafe.Pointer(&c[0])), n4/4)
		for wi := 0; wi*16 < len(c4); wi++ {
			xw, yw := x[wi], y[wi]
			for k := range c4[wi*16 : min(wi*16+16, len(c4))] {
				c4[wi*16+k] = nibbleLanes[xw&15] + nibbleLanes[yw&15]
				xw, yw = xw>>4, yw>>4
			}
		}
	}
	for j := n4; j < len(c); j++ {
		c[j] = int16(x[j/64]>>uint(j%64)&1 + y[j/64]>>uint(j%64)&1)
	}
}

// nibbleLanes[b] is the four bits of b as four int16 lanes of 0 or 1,
// laid out as the machine lays out a [4]int16, so the table is right on
// either byte order.
var nibbleLanes = func() (tbl [16]uint64) {
	for b := range tbl {
		var lanes [4]int16
		for t := range lanes {
			lanes[t] = int16(b >> t & 1)
		}
		tbl[b] = *(*uint64)(unsafe.Pointer(&lanes))
	}
	return tbl
}()

// Accelerated reports whether an architecture-specific kernel is
// active for int32 register files (false means the portable Go loops
// are in use).
func Accelerated() bool { return hasAccel }

// Name identifies the kernel int32 register files run ("avx2" or
// "generic"); reports embed it so a measurement is self-describing.
func Name() string {
	if hasAccel {
		return accelName
	}
	return "generic"
}
