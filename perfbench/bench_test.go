package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var out, errOut bytes.Buffer
			// The shortest run possible: the loops' minimum operations.
			cfg := config{workload: name, seed: 3, dur: time.Nanosecond, traced: traced,
				spans: t.TempDir(), size: tinySize}
			res, err := benchmark(context.Background(), cfg, &out, &errOut)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: result line: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, m, got, unit)
				}
				if !strings.Contains(out.String(), "# "+m+" ") {
					t.Errorf("%s trace=%v: %s not printed", name, traced, m)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
				}
			}
		}
	}
}

func TestWrongEnergyCountsAsFailed(t *testing.T) {
	w, err := newWorkload("dense-2048", 5, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	in := w.insts[0]
	res, err := core.Solve(in.p, w.solveOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	good := opRecord{inst: in, res: res}
	if err := good.check(); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}

	wrong := *res
	wrong.BestEnergy--
	bad := opRecord{inst: in, res: &wrong}
	if err := bad.check(); !errors.Is(err, errWrongEnergy) {
		t.Errorf("wrong energy: check = %v, want errWrongEnergy", err)
	}

	unsearched := *res
	unsearched.Best, unsearched.BestEnergy = bitvec.New(in.p.N()), 0
	var errOut bytes.Buffer
	ops := []opRecord{good, bad, {inst: in, res: &unsearched}, {inst: in, state: "failed", res: res}}
	if got := tally(w, ops, &errOut); got != 3 {
		t.Errorf("tally = %d failed, want 3\n%s", got, errOut.String())
	}
}

func TestSeedDrivesInstancesAndSolverSeeds(t *testing.T) {
	for _, name := range workloadNames {
		a1, err := newWorkload(name, 1, tinySize)
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := newWorkload(name, 1, tinySize)
		b, _ := newWorkload(name, 2, tinySize)
		if !sameInstances(a1, a2) || a1.solverSeed(7) != a2.solverSeed(7) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if sameInstances(a1, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same instances", name)
		}
		if a1.solverSeed(7) == b.solverSeed(7) || a1.solverSeed(7) == a1.solverSeed(8) {
			t.Errorf("%s: solver seeds do not follow the run seed and the operation", name)
		}
	}
}

func sameInstances(a, b *workload) bool {
	if len(a.insts) != len(b.insts) {
		return false
	}
	for k := range a.insts {
		p, q := a.insts[k].p, b.insts[k].p
		if p.N() != q.N() || a.insts[k].ref != b.insts[k].ref {
			return false
		}
		for i := 0; i < p.N(); i++ {
			for j := 0; j < p.N(); j++ {
				if p.Weight(i, j) != q.Weight(i, j) {
					return false
				}
			}
		}
	}
	return true
}
