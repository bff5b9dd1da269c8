package core

import (
	"testing"
	"time"
)

// TestRaceStaticFloorKeepsStaticSplit pins the race backend's unit
// assignment at the Solve level: every slot g runs straight or tabu by
// g mod 2, and the reported per-member unit counts are exactly that
// split and cover every block.
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
