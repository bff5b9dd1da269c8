package qubo

import (
	"math"
	"testing"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

// extremeProblem is a symmetric n-bit instance whose weights are drawn
// by mode: 0 full int16 range, 1 every weight −32768, 2 every weight
// 32767, 3 a random mix of the two extremes and zero.
func extremeProblem(n int, mode byte, seed uint64) *Problem {
	p := New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var w int16
			switch mode % 4 {
			case 0:
				w = int16(r.Intn(1<<16) - 1<<15)
			case 1:
				w = math.MinInt16
			case 2:
				w = math.MaxInt16
			default:
				w = []int16{math.MinInt16, 0, math.MaxInt16}[r.Intn(3)]
			}
			p.SetWeight(i, j, w)
		}
	}
	return p
}

// referenceAt returns a reference vector at the distance dmode picks
// from x: 0 (y = x), 1 (one bit flipped), n (y = ¬x) or a random y.
func referenceAt(x *bitvec.Vector, dmode byte, r *rng.Rand) *bitvec.Vector {
	n := x.Len()
	y := x.Clone()
	switch dmode % 4 {
	case 1:
		y.Flip(r.Intn(n))
	case 2:
		for i := 0; i < n; i++ {
			y.Flip(i)
		}
	case 3:
		y = bitvec.Random(n, r)
	}
	return y
}

// checkEnergyFrom asserts that both storages' EnergyFrom, from y and
// from zero, equal the O(n²) oracle on x.
func checkEnergyFrom(t *testing.T, p *Problem, x, y *bitvec.Vector) {
	t.Helper()
	sp := Sparsify(p)
	c := make([]int16, p.N())
	want, ey := p.Energy(x), p.Energy(y)
	if got := p.EnergyFrom(x, y, ey, c); got != want {
		t.Fatalf("n=%d |D|=%d: dense EnergyFrom %d, Energy %d", p.N(), x.Hamming(y), got, want)
	}
	if got := p.EnergyFrom(x, nil, 0, c); got != want {
		t.Fatalf("n=%d: dense EnergyFrom(zero) %d, Energy %d", p.N(), got, want)
	}
	if got := sp.EnergyFrom(x, y, ey); got != want {
		t.Fatalf("n=%d |D|=%d: sparse EnergyFrom %d, Energy %d", p.N(), x.Hamming(y), got, want)
	}
	if got := sp.EnergyFrom(x, nil, 0); got != want {
		t.Fatalf("n=%d: sparse EnergyFrom(zero) %d, Energy %d", p.N(), got, want)
	}
}

func TestEnergyFromMatchesEnergy(t *testing.T) {
	r := rng.New(41)
	// Sizes straddle the 64-bit word and the AVX2 row stride; every
	// weight mode and every distance class runs at each.
	for _, n := range []int{1, 2, 31, 32, 33, 63, 64, 65, 130, 257} {
		for mode := byte(0); mode < 4; mode++ {
			p := extremeProblem(n, mode, uint64(n)*4+uint64(mode))
			for dmode := byte(0); dmode < 4; dmode++ {
				x := bitvec.Random(n, r)
				checkEnergyFrom(t, p, x, referenceAt(x, dmode, r))
			}
		}
	}
}

// TestEnergyFromChainsReferences walks a reference forward the way the
// ingest gate does — each verified vector becomes the next reference —
// and checks every step against the oracle, so an error cannot hide by
// cancelling across steps.
func TestEnergyFromChainsReferences(t *testing.T) {
	p := extremeProblem(300, 0, 9)
	c := make([]int16, p.N())
	r := rng.New(10)
	y := bitvec.Random(p.N(), r)
	ey := p.EnergyFrom(y, nil, 0, c)
	for step := 0; step < 50; step++ {
		x := y.Clone()
		for k := r.Intn(40); k >= 0; k-- {
			x.Flip(r.Intn(p.N()))
		}
		e := p.EnergyFrom(x, y, ey, c)
		if want := p.Energy(x); e != want {
			t.Fatalf("step %d: chained EnergyFrom %d, Energy %d", step, e, want)
		}
		y, ey = x, e
	}
}

// FuzzEnergyFrom checks energy-from-reference against Problem.Energy on
// symmetric W: any size up to 200 bits, full-range and extreme weights
// (−32768, 32767), and references at |D| ∈ {0, 1, n} or random, on
// dense and sparse storage.
func FuzzEnergyFrom(f *testing.F) {
	f.Add(uint64(1), uint8(24), byte(0), byte(0), []byte{0x5a, 0xc3, 0x0f})
	f.Add(uint64(2), uint8(64), byte(1), byte(1), []byte{0xff})
	f.Add(uint64(3), uint8(200), byte(2), byte(2), []byte{0x01, 0x80})
	f.Add(uint64(4), uint8(1), byte(3), byte(3), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, mode, dmode byte, xb []byte) {
		n := 1 + int(size)%200
		p := extremeProblem(n, mode, seed)
		x := bitvec.New(n)
		for i := 0; i < n && i/8 < len(xb); i++ {
			x.Set(i, int(xb[i/8]>>(uint(i)%8))&1)
		}
		checkEnergyFrom(t, p, x, referenceAt(x, dmode, rng.New(seed)))
	})
}

// BenchmarkEnergyFrom times the ingest recheck at the dense-2048 shape:
// from a reference 32 bits away, from zero (the full path), and the
// O(n²) Energy oracle it replaced.
func BenchmarkEnergyFrom(b *testing.B) {
	const n = 2048
	p := extremeProblem(n, 0, 1)
	r := rng.New(2)
	x := bitvec.Random(n, r)
	y := x.Clone()
	for i := 0; i < 32; i++ {
		y.Flip(i * 61)
	}
	ey := p.Energy(y)
	c := make([]int16, n)
	b.Run("diff-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.EnergyFrom(x, y, ey, c)
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.EnergyFrom(x, nil, 0, c)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Energy(x)
		}
	})
}
