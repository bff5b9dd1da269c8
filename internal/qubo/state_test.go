package qubo

import (
	"math"
	"testing"
	"testing/quick"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

func TestNewZeroState(t *testing.T) {
	p := randomProblem(30, 1)
	s := NewZeroState(p)
	if s.Energy() != 0 {
		t.Errorf("E(0) = %d, want 0", s.Energy())
	}
	for k := 0; k < p.N(); k++ {
		if s.Delta(k) != int64(p.Weight(k, k)) {
			t.Errorf("Δ_%d(0) = %d, want W_kk = %d", k, s.Delta(k), p.Weight(k, k))
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

func TestNewStateMatchesDirect(t *testing.T) {
	p := randomProblem(25, 2)
	x := bitvec.Random(p.N(), rng.New(3))
	s := NewState(p, x)
	if s.Energy() != p.Energy(x) {
		t.Errorf("state energy %d != direct %d", s.Energy(), p.Energy(x))
	}
	if err := s.CheckConsistency(); err != nil {
		t.Error(err)
	}
	// NewState must copy its input.
	x.Flip(0)
	if err := s.CheckConsistency(); err != nil {
		t.Errorf("state shares caller's vector: %v", err)
	}
}

func TestFlipMaintainsInvariants(t *testing.T) {
	p := randomProblem(40, 4)
	s := NewZeroState(p)
	r := rng.New(5)
	for step := 0; step < 300; step++ {
		s.Flip(r.Intn(p.N()))
		if step%50 == 0 {
			if err := s.CheckConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := s.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if s.Flips() != 300 {
		t.Errorf("Flips = %d, want 300", s.Flips())
	}
}

func TestFlipEnergyAgainstDirect(t *testing.T) {
	p := randomProblem(20, 6)
	s := NewZeroState(p)
	r := rng.New(7)
	for step := 0; step < 100; step++ {
		k := r.Intn(p.N())
		predicted := s.Energy() + s.Delta(k) // Eq. (5)
		s.Flip(k)
		if s.Energy() != predicted {
			t.Fatalf("step %d: E after flip %d, predicted %d", step, s.Energy(), predicted)
		}
		if direct := p.Energy(s.X()); direct != s.Energy() {
			t.Fatalf("step %d: incremental %d, direct %d", step, s.Energy(), direct)
		}
	}
}

func TestBestTracking(t *testing.T) {
	p := randomProblem(16, 8)
	s := NewZeroState(p)
	if _, _, ok := s.Best(); ok {
		t.Error("fresh zero state already has a best (should need a flip or NoteCurrentAsBest)")
	}
	r := rng.New(9)
	minSeen := int64(math.MaxInt64)
	for step := 0; step < 200; step++ {
		s.Flip(r.Intn(p.N()))
		if s.Energy() < minSeen {
			minSeen = s.Energy()
		}
	}
	bx, be, ok := s.Best()
	if !ok {
		t.Fatal("no best recorded after 200 flips")
	}
	// The tracked best can only be at least as good as the best visited
	// solution, because Algorithm 4 also evaluates all n neighbours of
	// every visited solution.
	if be > minSeen {
		t.Errorf("best %d worse than best visited %d", be, minSeen)
	}
	if got := p.Energy(bx); got != be {
		t.Errorf("best vector energy %d != recorded %d", got, be)
	}
}

func TestBestNeighbourIsEvaluated(t *testing.T) {
	// Construct an instance where the optimum is one flip away from a
	// visited solution but strictly below it, to prove neighbour
	// evaluation (Eq. 5 applied to all n neighbours) feeds best-tracking.
	p := New(3)
	p.SetWeight(0, 0, 5)
	p.SetWeight(1, 1, 4)
	p.SetWeight(2, 2, -9) // optimum: only bit 2 set, E = -9
	s := NewZeroState(p)
	s.Flip(0) // move somewhere worse; neighbours of 100 include 101 (E=-4)
	_, be, ok := s.Best()
	if !ok {
		t.Fatal("no best after flip")
	}
	// Neighbours of X=100 are 000 (0), 110 (9), 101 (-4); X itself 5.
	if be != -4 {
		t.Errorf("best = %d, want -4 (the best neighbour)", be)
	}
}

func TestResetBest(t *testing.T) {
	p := randomProblem(12, 10)
	s := NewZeroState(p)
	s.Flip(3)
	if _, _, ok := s.Best(); !ok {
		t.Fatal("no best after a flip")
	}
	s.ResetBest()
	if _, _, ok := s.Best(); ok {
		t.Error("best survived ResetBest")
	}
	if s.BestEnergy() != math.MaxInt64 {
		t.Error("BestEnergy not sentinel after reset")
	}
	s.Flip(4)
	if _, _, ok := s.Best(); !ok {
		t.Error("best not re-established after reset + flip")
	}
}

func TestNoteCurrentAsBest(t *testing.T) {
	p := randomProblem(10, 11)
	x := bitvec.Random(p.N(), rng.New(12))
	s := NewState(p, x)
	s.NoteCurrentAsBest()
	bx, be, ok := s.Best()
	if !ok || be != s.Energy() || !bx.Equal(s.X()) {
		t.Error("NoteCurrentAsBest did not record current solution")
	}
}

func TestSnapshotIndependent(t *testing.T) {
	p := randomProblem(10, 13)
	s := NewZeroState(p)
	snap := s.Snapshot()
	s.Flip(1)
	if snap.Bit(1) != 0 {
		t.Error("snapshot mutated by Flip")
	}
}

func TestQuickStateConsistencyUnderRandomWalks(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%30)
		p := randomProblem(n, seed)
		s := NewZeroState(p)
		r := rng.New(seed ^ 0xabcdef)
		for i := 0; i < 64; i++ {
			s.Flip(r.Intn(n))
		}
		return s.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickDoubleFlipRestoresDeltas(t *testing.T) {
	// Δ_i(flip_k(flip_k(X))) == Δ_i(X): Eq. (6) applied twice with the
	// same k must cancel exactly.
	f := func(seed uint64, kRaw uint8) bool {
		n := 2 + int(seed%20)
		p := randomProblem(n, seed)
		x := bitvec.Random(n, rng.New(seed+1))
		s := NewState(p, x)
		before := append([]int32(nil), s.Deltas()...)
		e := s.Energy()
		k := int(kRaw) % n
		s.Flip(k)
		s.Flip(k)
		if s.Energy() != e {
			return false
		}
		for i, d := range s.Deltas() {
			if d != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestExactSolveTinyKnown(t *testing.T) {
	// n=2: E = w00·x0 + w11·x1 + 2·w01·x0·x1.
	p := New(2)
	p.SetWeight(0, 0, -1)
	p.SetWeight(1, 1, -1)
	p.SetWeight(0, 1, 5)
	// Candidates: 00→0, 10→-1, 01→-1, 11→-1-1+10=8. Optimum -1.
	_, e, err := ExactSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if e != -1 {
		t.Errorf("exact optimum %d, want -1", e)
	}
	optE, count, err := ExactEnergyHistogram(p)
	if err != nil {
		t.Fatal(err)
	}
	if optE != -1 || count != 2 {
		t.Errorf("histogram = (%d, %d), want (-1, 2)", optE, count)
	}
}

func TestExactSolveAgainstEnumeration(t *testing.T) {
	p := randomProblem(12, 14)
	bx, be, err := ExactSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Energy(bx); got != be {
		t.Fatalf("exact vector energy %d != reported %d", got, be)
	}
	// Independent enumeration without Gray codes.
	min := int64(math.MaxInt64)
	for v := 0; v < 1<<12; v++ {
		x := bitvec.New(12)
		for k := 0; k < 12; k++ {
			x.Set(k, (v>>k)&1)
		}
		if e := p.Energy(x); e < min {
			min = e
		}
	}
	if be != min {
		t.Errorf("ExactSolve = %d, enumeration = %d", be, min)
	}
}

func TestExactSolveRefusesLarge(t *testing.T) {
	p := New(ExactMaxBits + 1)
	if _, _, err := ExactSolve(p); err == nil {
		t.Error("oversized exact solve accepted")
	}
	if _, _, err := ExactEnergyHistogram(p); err == nil {
		t.Error("oversized histogram accepted")
	}
}

func BenchmarkFlip1k(b *testing.B) {
	p := randomProblem(1024, 1)
	s := NewZeroState(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Flip(i & 1023)
	}
}

func BenchmarkFlip4k(b *testing.B) {
	p := randomProblem(4096, 1)
	s := NewZeroState(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Flip(i & 4095)
	}
}
