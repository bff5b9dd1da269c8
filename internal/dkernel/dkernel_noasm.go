//go:build !amd64

package dkernel

// Non-amd64 architectures run the portable tile kernel; the stubs
// below exist so the dispatch sites compile and dead-code away.

const (
	hasAccel  = false
	accelName = "generic"
)

func flipTilesAccel(d []int32, row []int16, sgnc []int16, tmins []int32, nt int, neg bool) {
	panic("dkernel: no accelerated kernel on this architecture")
}

func minValAccel(d []int32) int32 {
	panic("dkernel: no accelerated kernel on this architecture")
}

func firstEqAccel(d []int32, v int32) int {
	panic("dkernel: no accelerated kernel on this architecture")
}

func rowDotAccel(row, c []int16) int64 {
	panic("dkernel: no accelerated kernel on this architecture")
}
