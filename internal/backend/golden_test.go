package backend

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"abs/internal/bitvec"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/rng"
)

// Golden trajectory hashes of one straight unit, recorded from the
// int64 Δ register file before the registers were narrowed to int32.
// The scalar-vs-batched suites compare two paths that now share the
// same int32 storage, so a common-mode width error would pass them;
// these hashes pin the trajectory to the pre-narrowing build instead.
// Any intended change to the straight unit's trajectory (policy, round
// protocol, tie-break) must re-record them deliberately.
const (
	goldenDense  uint64 = 0xe59492ddd647f0ac
	goldenSparse uint64 = 0xe3c4dcc4c90375e0
)

// sparseGolden builds a deterministic sparse instance with full-range
// int16 weights, including both extremes.
func sparseGolden(n int, seed uint64) *qubo.Problem {
	p := qubo.New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		p.SetWeight(i, i, r.Int16())
		for e := 0; e < 3; e++ {
			if j := r.Intn(n); j != i {
				p.SetWeight(i, j, r.Int16())
			}
		}
	}
	p.SetWeight(0, 1, -32768)
	p.SetWeight(2, 3, 32767)
	return p
}

// trajectoryHash drives one straight unit through rounds rounds,
// retargeting to a fresh random vector every tenth round, and hashes
// every observable the round protocol surfaces: retarget and round
// flip counts, the round's best energy and ok flag, and the best
// vector's words.
func trajectoryHash(t *testing.T, p *qubo.Problem, newState func() qubo.Engine, rounds int) uint64 {
	t.Helper()
	n := p.N()
	b, err := New("straight", Config{
		Problem:    p,
		NewState:   newState,
		Units:      4,
		Seed:       11,
		LocalSteps: 97,
		WindowMin:  3,
		WindowMax:  n / 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := b.NewUnit(2)
	r := rng.New(29)
	h := fnv.New64a()
	put := func(v uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for round := 0; round < rounds; round++ {
		if round%10 == 0 {
			put(uint64(u.Retarget(bitvec.Random(n, r), never)))
		}
		flips, x, e, ok := u.Round(never)
		put(uint64(flips))
		put(uint64(e))
		if !ok {
			put(0)
			continue
		}
		put(1)
		for _, w := range x.Words() {
			put(w)
		}
	}
	return h.Sum64()
}

func TestStraightUnitGoldenTrajectory(t *testing.T) {
	// 333 = five 64-wide tiles plus a 13-element ragged tail.
	dense := randqubo.Generate(333, 41)
	dense.SetWeight(5, 300, -32768)
	dense.SetWeight(64, 65, 32767)
	sparse := sparseGolden(700, 43)
	sp := qubo.Sparsify(sparse)
	cases := []struct {
		name     string
		p        *qubo.Problem
		newState func() qubo.Engine
		want     uint64
	}{
		{"dense", dense, func() qubo.Engine { return qubo.NewZeroState(dense) }, goldenDense},
		{"sparse", sparse, func() qubo.Engine { return qubo.NewSparseZeroState(sp) }, goldenSparse},
	}
	for _, c := range cases {
		if got := trajectoryHash(t, c.p, c.newState, 1000); got != c.want {
			t.Errorf("%s: trajectory hash %#x, want %#x", c.name, got, c.want)
		}
	}
}
