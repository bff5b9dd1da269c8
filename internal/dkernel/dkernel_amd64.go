package dkernel

// AVX2 dispatch: detection runs once at init; every public entry point
// branches on hasAccel. The assembly routines have alignment-free
// loads, so no layout contract is imposed on callers beyond lengths.

var (
	hasAccel  = cpuHasAVX2()
	accelName = "avx2"
)

// flipTilesAccel processes nt complete tiles with the AVX2 kernel.
func flipTilesAccel(d []int32, row []int16, sgnc []int16, tmins []int32, nt int, neg bool) {
	n := int64(0)
	if neg {
		n = 1
	}
	flipTiles32AVX2(&d[0], &row[0], &sgnc[0], &tmins[0], int64(nt), n)
}

// minValAccel requires len(d) >= accelMinLen.
func minValAccel(d []int32) int32 {
	return minVal32AVX2(&d[0], int64(len(d)))
}

// firstEqAccel requires len(d) >= accelMinLen; it returns −1 when v
// does not occur.
func firstEqAccel(d []int32, v int32) int {
	return int(firstEq32AVX2(&d[0], int64(len(d)), v))
}

// rowDotAccel requires len(row) to be a positive multiple of
// rowDotStep and at most rowDotChunk.
func rowDotAccel(row, c []int16) int64 {
	return rowDot16AVX2(&row[0], &c[0], int64(len(row)))
}

// Assembly routines (flip_avx2_amd64.s).
//
//go:noescape
func flipTiles32AVX2(d *int32, row *int16, sgnc *int16, tmins *int32, nTiles int64, neg int64)

//go:noescape
func minVal32AVX2(d *int32, n int64) int32

//go:noescape
func firstEq32AVX2(d *int32, n int64, v int32) int64

//go:noescape
func rowDot16AVX2(row *int16, c *int16, n int64) int64

// CPUID probes (cpu_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// cpuHasAVX2 reports AVX2 with OS support for YMM state: OSXSAVE and
// AVX in CPUID.1:ECX, XCR0 enabling XMM+YMM, and AVX2 in CPUID.7:EBX.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
