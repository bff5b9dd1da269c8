package abs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestFacadeQuickstart(t *testing.T) {
	p := RandomProblem(64, 42)
	res, err := SolveForContext(context.Background(), p, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy >= 0 {
		t.Errorf("no improvement on dense random instance: %d", res.BestEnergy)
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("returned vector energy %d != %d", got, res.BestEnergy)
	}
}

func TestFacadeSolveToTarget(t *testing.T) {
	p := RandomProblem(24, 7)
	_, optE, err := ExactSolve(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveToTargetContext(context.Background(), p, optE, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ReachedTarget || res.BestEnergy > optE {
		t.Errorf("target %d not reached: best %d", optE, res.BestEnergy)
	}
}

func TestFacadeIO(t *testing.T) {
	p := RandomProblem(16, 3)
	p.SetName("io-test")
	var sb strings.Builder
	if err := WriteProblem(&sb, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProblem(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != 16 || q.Name() != "io-test" {
		t.Errorf("round trip: n=%d name=%q", q.N(), q.Name())
	}
	var bb strings.Builder
	if err := WriteProblemBinary(&bb, p); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProblemBinary(strings.NewReader(bb.String())); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBaseline(t *testing.T) {
	p := RandomProblem(48, 5)
	x, e, err := SimulatedAnnealingBaseline(p, 50*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Energy(x); got != e {
		t.Errorf("baseline vector energy %d != %d", got, e)
	}
}

func TestFacadeDevices(t *testing.T) {
	if Turing2080Ti().SMs != 68 {
		t.Error("Turing spec wrong")
	}
	if ScaledDevice(3).SMs != 3 {
		t.Error("scaled spec wrong")
	}
	if !strings.Contains(Describe(RandomProblem(8, 1)), "8 bits") {
		t.Error("Describe output wrong")
	}
}

func TestFacadePresolve(t *testing.T) {
	p := NewProblem(10)
	for i := 0; i < 10; i++ {
		p.SetWeight(i, i, -40) // every variable persistently one
	}
	res, err := Presolve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced != nil {
		t.Fatalf("expected full fixing, %d free vars remain", res.Reduced.N())
	}
	x, err := res.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if x.OnesCount() != 10 {
		t.Errorf("expanded solution has %d ones, want 10", x.OnesCount())
	}
	if p.Energy(x) != -400 {
		t.Errorf("energy %d, want -400", p.Energy(x))
	}
}
