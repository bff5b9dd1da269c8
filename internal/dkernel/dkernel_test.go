package dkernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// widthBound is the largest |Δ| a register can hold for a supported
// instance: 32768·(2n−1) at qubo.MaxBits = 32768 variables.
const widthBound = 32768 * (2*32768 - 1)

// refFlip is the trusted scalar model of one FlipTiles call: the plain
// per-element loop with an interleaved running minimum, computed in
// int64 so that it cannot wrap at any register width.
func refFlip[T Delta](d []T, row []int16, sgnc []int16, neg bool) T {
	sign := int64(1)
	if neg {
		sign = -1
	}
	min := maxOf[T]()
	for i := range d {
		d[i] = T(int64(d[i]) + sign*int64(sgnc[i])*int64(row[i]))
		if d[i] < min {
			min = d[i]
		}
	}
	return min
}

// randInputs builds a random problem-row shape of length n, including
// extreme int16 weights and the 0 sentinel in the sign array.
func randInputs(r *rand.Rand, n int) (d []int32, row []int16, sgnc []int16) {
	d = make([]int32, n)
	row = make([]int16, n)
	sgnc = make([]int16, n)
	for i := range d {
		d[i] = int32(r.Intn(1<<20) - 1<<19)
		row[i] = int16(r.Intn(1<<16) - 1<<15) // full int16 range incl. −32768
		switch r.Intn(5) {
		case 0:
			sgnc[i] = 0 // the flipped-bit sentinel
		case 1, 2:
			sgnc[i] = 2
		default:
			sgnc[i] = -2
		}
	}
	return d, row, sgnc
}

// boundInputs is randInputs with every Δ seeded within one update of
// ±widthBound: each element's update lands it within 64 of the bound
// in the update's own direction, so both the seeded and the updated
// values are legal register contents. Every tenth weight is −32768.
func boundInputs(r *rand.Rand, n int, neg bool) (d []int32, row []int16, sgnc []int16) {
	d, row, sgnc = randInputs(r, n)
	sign := int64(1)
	if neg {
		sign = -1
	}
	for i := range d {
		if i%10 == 0 {
			row[i] = math.MinInt16
		}
		u := sign * int64(sgnc[i]) * int64(row[i])
		target := int64(widthBound - r.Intn(64))
		if u < 0 || (u == 0 && r.Intn(2) == 0) {
			target = -target
		}
		d[i] = int32(target - u)
	}
	return d, row, sgnc
}

// runFlip applies FlipTiles and folds the per-tile minima and tail
// minimum into the global minimum, the way callers consume it.
func runFlip[T Delta](d []T, row []int16, sgnc []int16, neg bool) T {
	tmins := make([]T, len(d)/TileWidth)
	min := FlipTiles(d, row, sgnc, tmins, neg)
	for _, m := range tmins {
		if m < min {
			min = m
		}
	}
	return min
}

// widen copies an int32 register file into an int64 one.
func widen(d []int32) []int64 {
	out := make([]int64, len(d))
	for i, v := range d {
		out[i] = int64(v)
	}
	return out
}

func TestFlipTilesAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Sizes straddle every boundary: empty, pure tail, exact tiles,
	// ragged tails of every alignment class.
	for _, n := range []int{0, 1, 7, 8, 63, 64, 65, 100, 127, 128, 129, 192, 1000, 1024, 4096, 4100} {
		for _, neg := range []bool{false, true} {
			d1, row, sgnc := randInputs(r, n)
			d2 := append([]int32(nil), d1...)
			want := refFlip(d1, row, sgnc, neg)
			got := runFlip(d2, row, sgnc, neg)
			if want != got {
				t.Errorf("n=%d neg=%v: min %d, want %d", n, neg, got, want)
			}
			for i := range d1 {
				if d1[i] != d2[i] {
					t.Fatalf("n=%d neg=%v: delta drift at %d: %d vs %d", n, neg, i, d2[i], d1[i])
				}
			}
		}
	}
}

func TestFlipTilesWidthsAgree(t *testing.T) {
	// The int64 instantiation (portable loops) and the int32 one (the
	// production width) must compute the same values.
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 5, 64, 130, 1024, 2047} {
		for _, neg := range []bool{false, true} {
			d32, row, sgnc := boundInputs(r, n, neg)
			d64 := widen(d32)
			m32 := runFlip(d32, row, sgnc, neg)
			m64 := runFlip(d64, row, sgnc, neg)
			if n > 0 && int64(m32) != m64 {
				t.Errorf("n=%d neg=%v: min int32 %d, int64 %d", n, neg, m32, m64)
			}
			for i := range d32 {
				if int64(d32[i]) != d64[i] {
					t.Fatalf("n=%d neg=%v: width drift at %d: %d vs %d", n, neg, i, d32[i], d64[i])
				}
			}
		}
	}
	if got := runFlip([]int64(nil), nil, nil, false); got != math.MaxInt64 {
		t.Errorf("empty int64 flip min = %d, want MaxInt64", got)
	}
}

func TestFlipTilesSentinelStaysInert(t *testing.T) {
	// A MaxInt32 delta with a zero sign entry must pass through the
	// kernel unchanged and never win a tile minimum — the exclusion
	// mechanism qubo.State relies on for the flipped bit.
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{64, 65, 130, 1024} {
		for _, bound := range []bool{false, true} {
			neg := r.Intn(2) == 0
			d, row, sgnc := randInputs(r, n)
			if bound {
				d, row, sgnc = boundInputs(r, n, neg)
			}
			k := r.Intn(n)
			d[k] = math.MaxInt32
			sgnc[k] = 0
			min := runFlip(d, row, sgnc, neg)
			if d[k] != math.MaxInt32 {
				t.Errorf("n=%d: sentinel at %d was modified: %d", n, k, d[k])
			}
			if min == math.MaxInt32 {
				t.Errorf("n=%d: minimum collapsed to the sentinel", n)
			}
		}
	}
}

func TestMinValAndFirstEq(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 100, 1024, 1027} {
		d := make([]int32, n)
		for i := range d {
			d[i] = int32(r.Intn(64) - 32) // narrow range forces ties
		}
		wantMin := minValGeneric(d)
		if got := MinVal(d); got != wantMin {
			t.Errorf("MinVal n=%d: %d, want %d", n, got, wantMin)
		}
		if n == 0 {
			if wantMin != math.MaxInt32 {
				t.Errorf("empty MinVal reference: %d", wantMin)
			}
			continue
		}
		if got := MinVal(widen(d)); got != int64(wantMin) {
			t.Errorf("MinVal int64 n=%d: %d, want %d", n, got, wantMin)
		}
		for trial := 0; trial < 20; trial++ {
			v := int32(r.Intn(70) - 35)
			want := firstEqGeneric(d, v)
			if got := FirstEq(d, v); got != want {
				t.Errorf("FirstEq n=%d v=%d: %d, want %d", n, v, got, want)
			}
			if got := FirstEq(widen(d), int64(v)); got != want {
				t.Errorf("FirstEq int64 n=%d v=%d: %d, want %d", n, v, got, want)
			}
		}
		i, v := MinFirst(d)
		if v != wantMin || i != firstEqGeneric(d, wantMin) {
			t.Errorf("MinFirst n=%d: (%d, %d)", n, i, v)
		}
	}
	if i, v := MinFirst([]int32(nil)); i != -1 || v != math.MaxInt32 {
		t.Errorf("MinFirst(nil int32) = (%d, %d)", i, v)
	}
	if i, v := MinFirst([]int64(nil)); i != -1 || v != math.MaxInt64 {
		t.Errorf("MinFirst(nil int64) = (%d, %d)", i, v)
	}
}

// TestQuickFlipAgreement drives randomized shapes through the batched
// kernel and the scalar reference — the quick.Check sweep over batch
// boundary alignments the PR 5 harness idiom asks for.
func TestQuickFlipAgreement(t *testing.T) {
	f := func(seed int64, sz uint16, neg bool) bool {
		n := int(sz % 600)
		r := rand.New(rand.NewSource(seed))
		d1, row, sgnc := randInputs(r, n)
		d2 := append([]int32(nil), d1...)
		want := refFlip(d1, row, sgnc, neg)
		got := runFlip(d2, row, sgnc, neg)
		if want != got {
			return false
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAcceleratedAgainstGeneric(t *testing.T) {
	if !Accelerated() {
		t.Skip("no accelerated kernel on this host")
	}
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := TileWidth * (1 + r.Intn(8))
		neg := r.Intn(2) == 0
		d1, row, sgnc := randInputs(r, n)
		if trial%2 == 1 {
			d1, row, sgnc = boundInputs(r, n, neg)
		}
		d2 := append([]int32(nil), d1...)
		t1 := make([]int32, n/TileWidth)
		t2 := make([]int32, n/TileWidth)
		flipTilesGeneric(d1, row, sgnc, t1, neg)
		flipTilesAccel(d2, row, sgnc, t2, n/TileWidth, neg)
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("trial %d: delta drift at %d", trial, i)
			}
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("trial %d: tile min drift at %d: %d vs %d", trial, i, t1[i], t2[i])
			}
		}
	}
}

// TestAcceleratedAtWidthBound runs the AVX2 path against the portable
// one at every length across three tiles plus a ragged tail, with Δ
// seeded within one update of ±widthBound and −32768 weights: the
// register width has no headroom there, so a lane that widened,
// saturated or wrapped differently would show.
func TestAcceleratedAtWidthBound(t *testing.T) {
	if !Accelerated() {
		t.Skip("no accelerated kernel on this host")
	}
	r := rand.New(rand.NewSource(6))
	for n := 1; n <= 3*TileWidth+9; n++ {
		for _, neg := range []bool{false, true} {
			d1, row, sgnc := boundInputs(r, n, neg)
			d2 := append([]int32(nil), d1...)
			nt := n / TileWidth
			t1 := make([]int32, nt)
			t2 := make([]int32, nt)
			flipTilesGeneric(d1[:nt*TileWidth], row, sgnc, t1, neg)
			tail1 := flipTail(d1, row, sgnc, nt*TileWidth, neg)
			tail2 := FlipTiles(d2, row, sgnc, t2, neg)
			if tail1 != tail2 {
				t.Fatalf("n=%d neg=%v: tail min %d, want %d", n, neg, tail2, tail1)
			}
			for i := range d1 {
				if d1[i] != d2[i] {
					t.Fatalf("n=%d neg=%v: delta drift at %d: %d vs %d", n, neg, i, d2[i], d1[i])
				}
				if v := int64(d1[i]); v > widthBound || v < -widthBound {
					t.Fatalf("n=%d: input left the width bound at %d: %d", n, i, v)
				}
			}
			for i := range t1 {
				if t1[i] != t2[i] {
					t.Fatalf("n=%d neg=%v: tile %d min %d, want %d", n, neg, i, t2[i], t1[i])
				}
			}
			// The window scans at the same length: the minimum placed at
			// every position, including the overlapped ragged end.
			if n < accelMinLen {
				continue
			}
			for pos := 0; pos < n; pos++ {
				seg := append([]int32(nil), d1...)
				seg[pos] = -widthBound
				if got := minValAccel(seg); got != -widthBound {
					t.Fatalf("n=%d pos=%d: MinVal %d", n, pos, got)
				}
				if got, want := firstEqAccel(seg, -widthBound), firstEqGeneric(seg, -widthBound); got != want {
					t.Fatalf("n=%d pos=%d: FirstEq %d, want %d", n, pos, got, want)
				}
			}
			if got := firstEqAccel(d1, math.MaxInt32); got != -1 {
				t.Fatalf("n=%d: FirstEq found an absent value at %d", n, got)
			}
		}
	}
}

func TestNameIsSelfDescribing(t *testing.T) {
	name := Name()
	if Accelerated() {
		if name == "generic" || name == "" {
			t.Errorf("accelerated kernel reports name %q", name)
		}
	} else if name != "generic" {
		t.Errorf("portable kernel reports name %q", name)
	}
}
