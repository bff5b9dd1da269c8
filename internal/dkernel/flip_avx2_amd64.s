// AVX2 kernels for int32 Δ register files: eight lanes per YMM
// register. The tile layout mirrors the portable Go implementation
// tile for tile; the agreement tests in dkernel_test.go assert
// bit-for-bit identical results.
#include "textflag.h"

// func flipTiles32AVX2(d *int32, row *int16, sgnc *int16, tmins *int32, nTiles int64, neg int64)
//
// For t in [0, nTiles), over the tile's 64 elements:
//
//	d[i] += int32(sgnc[i]) * int32(row[i]) * (neg != 0 ? -1 : +1)
//	tmins[t] = min over the tile of the updated d[i]
//
// sgnc is pre-scaled (±2 or the 0 sentinel), so the product
// |2·w| ≤ 2¹⁶ never overflows, and the accumulation is exact by the
// width bound qubo asserts for its register files.
TEXT ·flipTiles32AVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ sgnc+16(FP), DX
	MOVQ tmins+24(FP), R8
	MOVQ nTiles+32(FP), CX
	MOVQ neg+40(FP), AX

	// Y15 = per-lane ±1 multiplier applied with VPSIGND.
	MOVQ $1, BX
	TESTQ AX, AX
	JZ pos
	MOVQ $-1, BX
pos:
	MOVQ BX, X15
	VPBROADCASTD X15, Y15

	VPCMPEQD Y13, Y13, Y13
	VPSRLD $1, Y13, Y13     // Y13 = MaxInt32 ×8, the min accumulators' seed

tileloop:
	TESTQ CX, CX
	JZ done

	VMOVDQU Y13, Y14        // min accumulator A
	VMOVDQU Y13, Y12        // min accumulator B

	// Pull the next tile's row bytes toward the core while this tile
	// computes: the row streams once per flip from L2/L3/DRAM and is
	// the kernel's only non-resident operand at paper-shape n (d and
	// sgnc stay cache-resident between flips).
	PREFETCHT0 128(SI)
	PREFETCHT0 192(SI)

	MOVQ $4, R9             // 4 groups of 16 elements = one 64-wide tile
group:
	// elements g+0 .. g+7
	VPMOVSXWD (SI), Y0      // 8 × int32 row
	VPMOVSXWD (DX), Y1      // 8 × int32 sgnc
	VPMULLD Y1, Y0, Y0      // products (|v| ≤ 2¹⁶)
	VPSIGND Y15, Y0, Y0     // apply the flip sign
	VPADDD (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	VPMINSD Y0, Y14, Y14

	// elements g+8 .. g+15, on the second accumulator
	VPMOVSXWD 16(SI), Y2
	VPMOVSXWD 16(DX), Y3
	VPMULLD Y3, Y2, Y2
	VPSIGND Y15, Y2, Y2
	VPADDD 32(DI), Y2, Y2
	VMOVDQU Y2, 32(DI)
	VPMINSD Y2, Y12, Y12

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $64, DI
	DECQ R9
	JNZ group

	// tmins[t] = horizontal min over both accumulators
	VPMINSD Y12, Y14, Y14
	VEXTRACTI128 $1, Y14, X9
	VPMINSD X9, X14, X14
	VPSHUFD $0x4e, X14, X9
	VPMINSD X9, X14, X14
	VPSHUFD $0xb1, X14, X9
	VPMINSD X9, X14, X14
	VMOVD X14, AX
	MOVL AX, (R8)
	ADDQ $4, R8

	DECQ CX
	JMP tileloop

done:
	VZEROUPPER
	RET

// func minVal32AVX2(d *int32, n int64) int32
//
// Minimum of d[0:n]; n must be at least 8. The accumulators start from
// the last eight elements, which covers a ragged end by overlap (the
// minimum is indifferent to seeing an element twice).
TEXT ·minVal32AVX2(SB), NOSPLIT, $0-20
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	VMOVDQU -32(DI)(CX*4), Y14
	VMOVDQU Y14, Y12
	MOVQ CX, BX
	SHRQ $4, BX             // pairs of full vectors
	JZ single
pairloop:
	VPMINSD (DI), Y14, Y14
	VPMINSD 32(DI), Y12, Y12
	ADDQ $64, DI
	DECQ BX
	JNZ pairloop
single:
	TESTQ $8, CX            // one full vector left over
	JZ reduce
	VPMINSD (DI), Y14, Y14
reduce:
	VPMINSD Y12, Y14, Y14
	VEXTRACTI128 $1, Y14, X9
	VPMINSD X9, X14, X14
	VPSHUFD $0x4e, X14, X9
	VPMINSD X9, X14, X14
	VPSHUFD $0xb1, X14, X9
	VPMINSD X9, X14, X14
	VMOVD X14, AX
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// func firstEq32AVX2(d *int32, n int64, v int32) int64
//
// Smallest i with d[i] == v, or −1; n must be at least 8. The
// tie-break resolver: called once per flip (or selection) on the
// winning tile or window segment only. Full vectors are scanned in
// order; a ragged end is checked with one overlapping load of the last
// eight elements, whose lanes before n&^7 are already known unequal.
TEXT ·firstEq32AVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVL v+16(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	LEAQ -32(DI)(CX*4), R10 // &d[n-8]
	MOVQ CX, R11
	SHRQ $3, CX             // full vectors, at least one
	XORQ R9, R9
eqloop:
	VPCMPEQD (DI), Y0, Y1
	VMOVMSKPS Y1, AX
	TESTL AX, AX
	JNZ found
	ADDQ $32, DI
	ADDQ $8, R9
	DECQ CX
	JNZ eqloop
	VPCMPEQD (R10), Y0, Y1
	VMOVMSKPS Y1, AX
	TESTL AX, AX
	JZ none
	LEAQ -8(R11), R9
found:
	BSFL AX, AX
	ADDQ R9, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
none:
	MOVQ $-1, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
