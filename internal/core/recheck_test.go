package core

import (
	"testing"
	"time"

	"abs/internal/gpusim"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/telemetry"
)

// TestIngestRecheckExactUnderCorruption is the exactness invariant of
// the per-slot reference recheck at sizes where it actually runs: a
// dense n=256 solve and a sparse G-set-style solve, each with 30 % of
// publications corrupted. At Finish every evaluated pool entry must
// carry its true energy, the reported best must be exact, corruption
// must have been quarantined, and some rechecks must have taken the
// diff path (at n=24, as in the storm tests, the check from zero
// nearly always reads fewer rows).
func TestIngestRecheckExactUnderCorruption(t *testing.T) {
	g, err := maxcut.GenerateRandom(800, 4000, maxcut.WeightsPlusMinusOne, 3)
	if err != nil {
		t.Fatal(err)
	}
	gset, err := maxcut.ToQUBO(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		p       *qubo.Problem
		storage Storage
	}{
		{"dense-256", randomProblem(256, 5), StorageDense},
		{"sparse-gset-800", gset, StorageSparse},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := gpusim.NewFaultPlan(21)
			plan.CorruptPublications(0.3)
			reg := telemetry.NewRegistry()
			o := faultOptions()
			o.Storage = tc.storage
			o.Faults = plan
			o.Telemetry = reg
			o.MaxDuration = 600 * time.Millisecond

			eng, err := NewEngine(tc.p, o)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Storage() != tc.storage {
				t.Fatalf("engine resolved storage %v, want %v", eng.Storage(), tc.storage)
			}
			fleet, err := gpusim.NewFleet(eng.opt.Device, eng.maxDevices)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fleet.Size(); i++ {
				if err := eng.Attach(fleet.Device(i)); err != nil {
					t.Fatal(err)
				}
			}
			for !eng.ShouldStop(time.Now()) {
				eng.Pump(time.Now())
				time.Sleep(o.PollInterval)
			}
			res := eng.Finish(false)

			pool := eng.host.Pool()
			for i := 0; i < pool.Len(); i++ {
				ent := pool.At(i)
				if ent.Known() && tc.p.Energy(ent.X) != ent.E {
					t.Errorf("pool entry %d claims %d, true energy %d", i, ent.E, tc.p.Energy(ent.X))
				}
			}
			if got := tc.p.Energy(res.Best); got != res.BestEnergy {
				t.Errorf("best energy %d, true %d", res.BestEnergy, got)
			}
			if res.Quarantined == 0 {
				t.Error("no publication quarantined despite 30% corruption")
			}
			if plan.Counts().Corruptions == 0 {
				t.Error("fault plan corrupted nothing")
			}
			if !telemetry.Enabled {
				return // the path counts compile out with telemetry
			}
			s := reg.Snapshot()
			diff, _ := s.Counter("abs_ingest_rechecks_total", "diff")
			full, _ := s.Counter("abs_ingest_rechecks_total", "full")
			if diff == 0 {
				t.Errorf("no recheck took the diff path (full: %v)", full)
			}
			t.Logf("rechecks: diff %v, full %v; quarantined %d of %d corrupted",
				diff, full, res.Quarantined, plan.Counts().Corruptions)
		})
	}
}
