package ga

import (
	"testing"
	"testing/quick"
	"time"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

func TestPoolInsertSortedDistinct(t *testing.T) {
	p := NewPool(8, 4)
	r := rng.New(1)
	v1 := bitvec.Random(8, r)
	if !p.Insert(v1, 10) {
		t.Fatal("insert into empty pool failed")
	}
	if p.Insert(v1.Clone(), 10) {
		t.Fatal("duplicate insert accepted")
	}
	v2 := bitvec.Random(8, r)
	v3 := bitvec.Random(8, r)
	p.Insert(v2, -5)
	p.Insert(v3, 3)
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.At(0).E != -5 || p.At(1).E != 3 || p.At(2).E != 10 {
		t.Errorf("pool not sorted: %d %d %d", p.At(0).E, p.At(1).E, p.At(2).E)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPoolEvictsWorstWhenFull(t *testing.T) {
	p := NewPool(8, 2)
	r := rng.New(2)
	a, b, c := bitvec.Random(8, r), bitvec.Random(8, r), bitvec.Random(8, r)
	p.Insert(a, 5)
	p.Insert(b, 7)
	// Worse than the worst: rejected.
	if p.Insert(c, 9) {
		t.Error("worse-than-worst insert accepted into full pool")
	}
	// Better: inserted, worst evicted.
	if !p.Insert(c.Clone(), 1) {
		t.Error("better insert rejected")
	}
	if p.Len() != 2 || p.At(0).E != 1 || p.At(1).E != 5 {
		t.Errorf("pool after eviction: %d entries, best %d", p.Len(), p.At(0).E)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPoolDistinctVectorsSameEnergy(t *testing.T) {
	// Two different vectors with the same energy must both be admitted
	// (distinctness is by vector, not energy).
	p := NewPool(8, 4)
	a, _ := bitvec.FromString("00000001")
	b, _ := bitvec.FromString("00000010")
	if !p.Insert(a, 5) || !p.Insert(b, 5) {
		t.Fatal("distinct same-energy vectors rejected")
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	// But exact duplicates of either are rejected.
	if p.Insert(a.Clone(), 5) {
		t.Error("duplicate accepted")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPoolUnknownEnergySortsLast(t *testing.T) {
	p := NewPool(8, 3)
	r := rng.New(3)
	p.Insert(bitvec.Random(8, r), UnknownEnergy)
	p.Insert(bitvec.Random(8, r), 100)
	if !p.At(0).Known() || p.At(1).Known() {
		t.Error("unknown-energy entry not sorted last")
	}
	if _, ok := p.Best(); !ok {
		t.Error("Best should report the evaluated entry")
	}
}

func TestPoolBestOnUnevaluated(t *testing.T) {
	p := NewPool(8, 2)
	if _, ok := p.Best(); ok {
		t.Error("empty pool reported a best")
	}
	p.Insert(bitvec.New(8), UnknownEnergy)
	if _, ok := p.Best(); ok {
		t.Error("unevaluated pool reported a best")
	}
}

func TestSeedRandomFillsToCapacity(t *testing.T) {
	p := NewPool(32, 10)
	p.SeedRandom(rng.New(4))
	if p.Len() != 10 {
		t.Fatalf("seeded len = %d", p.Len())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestQuickPoolInvariantsUnderChurn(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := NewPool(16, 8)
		for i := 0; i < 200; i++ {
			p.Insert(bitvec.Random(16, r), int64(r.Intn(40)-20))
		}
		return p.CheckInvariants() == nil && p.Len() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoolWouldAdmitAgreesWithInsert(t *testing.T) {
	// The ingest gate's prefilter calls WouldAdmit and then Insert; the
	// two must never disagree, with or without the duplicate ablation
	// toggle.
	for _, allowDup := range []bool{false, true} {
		r := rng.New(7)
		p := NewPool(6, 5) // tiny space: plenty of duplicate collisions
		p.SetAllowDuplicates(allowDup)
		for i := 0; i < 400; i++ {
			x := bitvec.Random(6, r)
			e := int64(r.Intn(20) - 10)
			want := p.WouldAdmit(x, e)
			if got := p.Insert(x, e); got != want {
				t.Fatalf("allowDup=%v step %d: WouldAdmit=%v, Insert=%v", allowDup, i, want, got)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("allowDup=%v step %d: %v", allowDup, i, err)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{PoolSize: 1, MutationBits: 1, CrossoverWeight: 1, Elitism: 1},
		{PoolSize: 4, MutationBits: 0, CrossoverWeight: 1, Elitism: 1},
		{PoolSize: 4, MutationBits: 1, Elitism: 1}, // all weights zero
		{PoolSize: 4, MutationBits: 1, CrossoverWeight: -1, Elitism: 1},
		{PoolSize: 4, MutationBits: 1, CrossoverWeight: 1, Elitism: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMutateFlipsExactBits(t *testing.T) {
	h, err := NewHost(64, DefaultConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	x := bitvec.Random(64, rng.New(6))
	y := h.Mutate(x)
	if d := x.Hamming(y); d != DefaultConfig().MutationBits {
		t.Errorf("mutation distance %d, want %d", d, DefaultConfig().MutationBits)
	}
}

func TestMutateClampsToLength(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MutationBits = 100
	h, err := NewHost(8, cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x := bitvec.New(8)
	y := h.Mutate(x)
	if d := x.Hamming(y); d != 8 {
		t.Errorf("clamped mutation distance %d, want 8", d)
	}
}

func TestCrossUniformBitsFromParents(t *testing.T) {
	r := rng.New(8)
	a := bitvec.Random(256, r)
	b := bitvec.Random(256, r)
	c := bitvec.CrossUniform(a, b, r)
	for i := 0; i < 256; i++ {
		if c.Bit(i) != a.Bit(i) && c.Bit(i) != b.Bit(i) {
			t.Fatalf("child bit %d from neither parent", i)
		}
	}
}

func TestCrossUniformMixes(t *testing.T) {
	r := rng.New(9)
	a := bitvec.New(256) // all zeros
	b := bitvec.New(256)
	for i := 0; i < 256; i++ {
		b.Set(i, 1)
	}
	c := bitvec.CrossUniform(a, b, r)
	ones := c.OnesCount()
	if ones < 64 || ones > 192 {
		t.Errorf("crossover of 0s and 1s produced %d ones out of 256 (expected ~128)", ones)
	}
}

func TestNewTargetProducesValidVectors(t *testing.T) {
	h, err := NewHost(128, DefaultConfig(), rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		x := h.NewTarget()
		if x.Len() != 128 {
			t.Fatalf("target length %d", x.Len())
		}
	}
	gen, _, _ := h.Stats()
	if gen != 500 {
		t.Errorf("generated counter = %d", gen)
	}
}

func TestHostInsertCounters(t *testing.T) {
	h, err := NewHost(16, DefaultConfig(), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	x := bitvec.Random(16, rng.New(12))
	h.Insert(x, -100)
	h.Insert(x.Clone(), -100) // duplicate
	_, ins, rej := h.Stats()
	if ins != 1 || rej != 1 {
		t.Errorf("counters: inserted=%d rejected=%d, want 1/1", ins, rej)
	}
}

func TestElitismBiasesSelection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolSize = 32
	cfg.Elitism = 3
	h, err := NewHost(16, cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	front, back := 0, 0
	for i := 0; i < 10000; i++ {
		idx := h.pickIndex()
		if idx < 8 {
			front++
		}
		if idx >= 24 {
			back++
		}
	}
	if front <= back*2 {
		t.Errorf("elitism not biasing: front quartile %d, back quartile %d", front, back)
	}
}

func TestPoolPanicsOnMisuse(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero-capacity pool accepted")
			}
		}()
		NewPool(8, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length-mismatched insert accepted")
			}
		}()
		NewPool(8, 2).Insert(bitvec.New(9), 0)
	}()
}

func BenchmarkPoolInsert(b *testing.B) {
	p := NewPool(1024, 64)
	r := rng.New(1)
	vecs := make([]*bitvec.Vector, 256)
	for i := range vecs {
		vecs[i] = bitvec.Random(1024, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Insert(vecs[i&255].Clone(), int64(r.Intn(1000)))
	}
}

func BenchmarkNewTarget1k(b *testing.B) {
	h, err := NewHost(1024, DefaultConfig(), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.NewTarget()
	}
}

func TestSeedRandomTinySolutionSpace(t *testing.T) {
	// Regression: a 4-bit pool with capacity 64 can hold at most 16
	// distinct vectors; seeding must terminate at that point rather
	// than spin forever looking for a 17th.
	p := NewPool(4, 64)
	done := make(chan struct{})
	go func() {
		p.SeedRandom(rng.New(1))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SeedRandom did not terminate on a tiny solution space")
	}
	if p.Len() != 16 {
		t.Errorf("seeded %d entries, want 16", p.Len())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHostOnTinyProblem(t *testing.T) {
	h, err := NewHost(3, DefaultConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if x := h.NewTarget(); x.Len() != 3 {
			t.Fatal("bad target")
		}
	}
}
