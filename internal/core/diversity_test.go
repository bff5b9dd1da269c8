package core

import (
	"testing"
	"time"

	"abs/internal/diversity"
	"abs/internal/qubo"
)

// TestSolveWithDiversityPolicy runs the full Solve path with the DABS
// admission policy installed and checks it still reaches a small
// instance's exact optimum: the diversified pool must not cost
// feasibility, only crowding.
func TestSolveWithDiversityPolicy(t *testing.T) {
	p := randomProblem(24, 91)
	_, optE, err := qubo.ExactSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	o := tinyOptions()
	o.Diversity = diversity.Spec{Radius: 2}
	o.TargetEnergy = &optE
	o.MaxDuration = 20 * time.Second // safety net; target expected fast
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget {
		t.Fatalf("diversified solve missed optimum %d; best %d", optE, res.BestEnergy)
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("best vector energy %d != reported %d", got, res.BestEnergy)
	}
}

// TestSolveRejectsBadDiversitySpec pins option validation: a malformed
// spec is an error before any engine is built.
func TestSolveRejectsBadDiversitySpec(t *testing.T) {
	p := randomProblem(16, 92)
	o := tinyOptions()
	o.MaxFlips = 100
	o.Diversity = diversity.Spec{Radius: -4}
	if _, err := Solve(p, o); err == nil {
		t.Fatal("Solve accepted a negative diversity radius")
	}
}

// TestRaceStaticFloorKeepsStaticSplit pins the race backend's unit
// assignment at the Solve level: under the default spec every slot g
// runs straight or tabu by g mod 2, and the reported per-member unit
// counts are exactly that split and cover every block.
func TestRaceStaticFloorKeepsStaticSplit(t *testing.T) {
	p := randomProblem(48, 93)
	o := tinyOptions()
	o.Backend = BackendRace
	o.MaxDuration = 200 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	members := []string{"straight", "tabu"}
	want := make(map[string]int)
	for g := 0; g < res.Blocks; g++ {
		want[members[g%len(members)]]++
	}
	total := 0
	for _, name := range members {
		st, ok := res.BackendStats[name]
		if !ok {
			t.Fatalf("BackendStats missing member %q: %+v", name, res.BackendStats)
		}
		if st.Units != want[name] {
			t.Errorf("member %q has %d units, want static %d", name, st.Units, want[name])
		}
		total += st.Units
	}
	if total != res.Blocks {
		t.Errorf("unit counts sum %d != %d blocks", total, res.Blocks)
	}
	if len(res.BackendStats) != len(members) {
		t.Errorf("BackendStats has %d entries, want only the members %v: %+v", len(res.BackendStats), members, res.BackendStats)
	}
	for g, bs := range res.BlockStats {
		if bs.Backend != members[g%len(members)] {
			t.Errorf("slot %d runs %q, want %q", g, bs.Backend, members[g%len(members)])
		}
	}
}

// TestNonRaceBackendUnitsAreWholeFleet pins the degenerate shape: a
// single-engine backend owns every block in the reported split.
func TestNonRaceBackendUnitsAreWholeFleet(t *testing.T) {
	p := randomProblem(32, 95)
	o := tinyOptions()
	o.Backend = BackendStraight
	o.MaxDuration = 100 * time.Millisecond
	res, err := Solve(p, o)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := res.BackendStats["straight"]
	if !ok {
		t.Fatalf("BackendStats missing the only backend: %+v", res.BackendStats)
	}
	if st.Units != res.Blocks {
		t.Errorf("straight owns %d units, want all %d blocks", st.Units, res.Blocks)
	}
}
