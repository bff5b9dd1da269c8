package qubo

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"abs/internal/bitvec"
	"abs/internal/dkernel"
	"abs/internal/rng"
)

// assertStatesEqual compares every observable of the Engine surface the
// rest of the system depends on: trajectory equivalence means these
// match after every flip, not just at the end.
func assertStatesEqual(t *testing.T, step int, scalar, batched *State) {
	t.Helper()
	if scalar.Energy() != batched.Energy() {
		t.Fatalf("step %d: energy scalar %d, batched %d", step, scalar.Energy(), batched.Energy())
	}
	if scalar.Flips() != batched.Flips() {
		t.Fatalf("step %d: flips scalar %d, batched %d", step, scalar.Flips(), batched.Flips())
	}
	if scalar.BestEnergy() != batched.BestEnergy() {
		t.Fatalf("step %d: best energy scalar %d, batched %d",
			step, scalar.BestEnergy(), batched.BestEnergy())
	}
	sd, bd := scalar.Deltas(), batched.Deltas()
	for i := range sd {
		if sd[i] != bd[i] {
			t.Fatalf("step %d: Δ_%d scalar %d, batched %d", step, i, sd[i], bd[i])
		}
	}
	if !scalar.X().Equal(batched.X()) {
		t.Fatalf("step %d: solution vectors diverged", step)
	}
	sv, se, sok := scalar.Best()
	bv, be, bok := batched.Best()
	if sok != bok || se != be {
		t.Fatalf("step %d: best scalar (%d,%v), batched (%d,%v)", step, se, sok, be, bok)
	}
	if sok && !sv.Equal(bv) {
		t.Fatalf("step %d: best vectors diverged (same energy %d)", step, se)
	}
}

// windowMinSelect replicates search.OffsetWindow.Select inline: the
// first strict minimum over the circular window [offset, offset+l).
// The search package cannot be imported here (it imports qubo), so the
// policy's selection rule is reproduced to drive both engines with the
// exact flip sequence the production hot path would issue.
func windowMinSelect(d []int32, offset, l int) int {
	n := len(d)
	best, bestD := -1, int32(math.MaxInt32)
	for j := 0; j < l; j++ {
		i := offset + j
		if i >= n {
			i -= n
		}
		if d[i] < bestD {
			best, bestD = i, d[i]
		}
	}
	return best
}

// TestBatchedMatchesScalarTrajectory is the tentpole equivalence
// property: the batched kernel must pick the identical trajectory as
// the scalar reference when both run the production selection rule —
// an offset-window minimum over their own delta vectors. Any deviation
// in deltas, tie-breaking, or best-tracking diverges the walks.
func TestBatchedMatchesScalarTrajectory(t *testing.T) {
	for _, tc := range []struct {
		n      int
		window int
	}{
		{n: 63, window: 7},
		{n: 64, window: 16},
		{n: 65, window: 64},
		{n: 128, window: 32},
		{n: 200, window: 50},
		{n: 300, window: 300}, // full-width window: global argmin every step
	} {
		t.Run(fmt.Sprintf("n%d-w%d", tc.n, tc.window), func(t *testing.T) {
			p := sparseRandom(tc.n, 1.0, uint64(tc.n))
			scalar := newZeroStateMode(p, false)
			batched := newZeroStateMode(p, true)
			offset := 0
			for step := 0; step < 600; step++ {
				ks := windowMinSelect(scalar.Deltas(), offset, tc.window)
				kb := windowMinSelect(batched.Deltas(), offset, tc.window)
				if ks != kb {
					t.Fatalf("step %d: selection diverged: scalar %d, batched %d", step, ks, kb)
				}
				scalar.Flip(ks)
				batched.Flip(kb)
				assertStatesEqual(t, step, scalar, batched)
				offset = (offset + tc.window) % tc.n
			}
			if err := batched.CheckConsistency(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestBatchedMatchesScalarRandomWalk covers flip sequences selection
// would never produce — repeated flips of the same bit, immediate
// undo, adversarial orders — where the sentinel restore logic is most
// stressed.
func TestBatchedMatchesScalarRandomWalk(t *testing.T) {
	p := sparseRandom(150, 1.0, 11)
	scalar := newZeroStateMode(p, false)
	batched := newZeroStateMode(p, true)
	r := rng.New(12)
	for step := 0; step < 800; step++ {
		var k int
		switch step % 5 {
		case 0, 1, 2:
			k = r.Intn(150)
		case 3:
			k = step % 150 // deterministic sweep
		default:
			k = (step - 1) % 150 // immediate re-flip of the previous sweep bit
		}
		scalar.Flip(k)
		batched.Flip(k)
		assertStatesEqual(t, step, scalar, batched)
	}
	if err := batched.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestBatchedFromArbitraryVector checks the NewState construction path
// (sign registers derived from a non-zero start) and reset semantics.
func TestBatchedFromArbitraryVector(t *testing.T) {
	p := sparseRandom(100, 1.0, 21)
	x := bitvec.Random(100, rng.New(22))
	scalar := newStateMode(p, x, false)
	batched := newStateMode(p, x, true)
	assertStatesEqual(t, -1, scalar, batched)
	r := rng.New(23)
	for step := 0; step < 300; step++ {
		k := r.Intn(100)
		scalar.Flip(k)
		batched.Flip(k)
		if step == 150 {
			scalar.ResetBest()
			batched.ResetBest()
			scalar.NoteCurrentAsBest()
			batched.NoteCurrentAsBest()
		}
		assertStatesEqual(t, step, scalar, batched)
	}
	if err := batched.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// TestQuickBatchedScalarEquivalence sweeps random sizes across tile
// boundaries and random window lengths — the quick.Check harness of
// the PR 5 cross-rep idiom applied to the two dense flip paths.
func TestQuickBatchedScalarEquivalence(t *testing.T) {
	f := func(seed uint64, wseed uint16) bool {
		n := 4 + int(seed%200) // straddles 0, 1, 2, 3 full tiles
		l := 1 + int(wseed)%n
		p := sparseRandom(n, 1.0, seed)
		scalar := newZeroStateMode(p, false)
		batched := newZeroStateMode(p, true)
		offset := int(seed % uint64(n))
		for step := 0; step < 120; step++ {
			k := windowMinSelect(scalar.Deltas(), offset, l)
			if k != windowMinSelect(batched.Deltas(), offset, l) {
				return false
			}
			scalar.Flip(k)
			batched.Flip(k)
			if scalar.Energy() != batched.Energy() ||
				scalar.BestEnergy() != batched.BestEnergy() {
				return false
			}
			offset = (offset + l) % n
		}
		sd, bd := scalar.Deltas(), batched.Deltas()
		for i := range sd {
			if sd[i] != bd[i] {
				return false
			}
		}
		return batched.CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSetDenseKernelScalar checks the process-wide switch affects new
// constructions only, and that DenseKernelName tracks it.
func TestSetDenseKernelScalar(t *testing.T) {
	defer SetDenseKernelScalar(false)
	p := sparseRandom(70, 1.0, 31)

	SetDenseKernelScalar(true)
	if DenseKernelName() != "scalar" {
		t.Errorf("forced name = %q", DenseKernelName())
	}
	s1 := NewZeroState(p)
	if s1.batched {
		t.Error("scalar force ignored by NewZeroState")
	}

	SetDenseKernelScalar(false)
	if DenseKernelName() != dkernel.Name() {
		t.Errorf("default name = %q, want %q", DenseKernelName(), dkernel.Name())
	}
	s2 := NewZeroState(p)
	if !s2.batched {
		t.Error("batched default ignored by NewZeroState")
	}
	if !s1.batched && s2.batched {
		// Existing states keep their path: drive both and compare.
		r := rng.New(32)
		for step := 0; step < 200; step++ {
			k := r.Intn(70)
			s1.Flip(k)
			s2.Flip(k)
			assertStatesEqual(t, step, s1, s2)
		}
	}
}

// BenchmarkDenseKernel is the State-level microbenchmark pair behind
// BENCH_pr10.json: full Flip cost, batched vs the scalar reference, at
// paper-shape sizes.
func BenchmarkDenseKernel(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		p := sparseRandom(n, 1.0, 1)
		for _, mode := range []struct {
			name    string
			batched bool
		}{{"batched", true}, {"scalar", false}} {
			b.Run(fmt.Sprintf("%s-n%d", mode.name, n), func(b *testing.B) {
				s := newZeroStateMode(p, mode.batched)
				r := rng.New(2)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Flip(r.Intn(n))
				}
			})
		}
	}
}
