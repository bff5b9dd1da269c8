package main

import (
	"context"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"abs/internal/backend"
	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/dkernel"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/serve"
)

// The probes time one layer at a time by calling its public functions
// on the workload's instances, each for a fixed wall budget. They run
// only in traced runs.

// timeLoop calls step(i) for i = 0, 1, … until budget has passed,
// checking the clock every batch calls, and returns the calls made and
// the time they took.
func timeLoop(budget time.Duration, batch int, step func(i int)) (int, time.Duration) {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < budget {
		for b := 0; b < batch; b++ {
			step(calls)
			calls++
		}
	}
	return calls, time.Since(start)
}

// sparsest returns the workload instance of lowest density.
func (w *workload) sparsest() *instance {
	best := w.insts[0]
	for _, in := range w.insts[1:] {
		if in.p.Density() < best.p.Density() {
			best = in
		}
	}
	return best
}

// probeDKernel times dkernel.FlipTiles over the rows of the workload's
// first instance. Bytes are computed from slice sizes, not measured:
// d is read and written (8+8 B per element), row and sgnc read (2+2 B),
// and one 8 B minimum written per tile.
func probeDKernel(w *workload, r *rand.Rand, m map[string]float64) {
	p := w.insts[0].p
	n := p.N()
	d := make([]int64, n)
	sgnc := make([]int16, n)
	for i := range d {
		d[i] = int64(p.Weight(i, i))
		sgnc[i] = int16(2 - 4*r.IntN(2))
	}
	tmins := make([]int64, n/dkernel.TileWidth+1)
	calls, took := timeLoop(w.probeBudget(), 64, func(i int) {
		dkernel.FlipTiles(d, p.Row(i%n), sgnc, tmins, i&1 == 1)
	})
	ns := float64(took.Nanoseconds()) / float64(calls)
	bytes := float64(n*20 + n/dkernel.TileWidth*8)
	m["dkernel.flip_tiles_ns"] = ns
	m["dkernel.computed_gb_per_s"] = bytes / ns
}

// probeFlips times Engine.Flip of one engine on random bits.
func probeFlips(budget time.Duration, s qubo.Engine, r *rand.Rand) float64 {
	n := s.N()
	calls, took := timeLoop(budget, 256, func(int) { s.Flip(r.IntN(n)) })
	return float64(calls) / took.Seconds()
}

// probeQubo times the dense engine on the first instance, the sparse
// engine on the sparsest one, and Problem.Energy — the ingest gate's
// recheck — on every instance.
func probeQubo(w *workload, r *rand.Rand, m map[string]float64) {
	m["qubo.dense_flips_per_s"] = probeFlips(w.probeBudget(), qubo.NewZeroState(w.insts[0].p), r)
	m["qubo.sparse_flips_per_s"] = probeFlips(w.probeBudget(), qubo.NewSparseZeroState(qubo.Sparsify(w.sparsest().p)), r)
	var walls []float64
	per := w.probeBudget() / time.Duration(len(w.insts))
	for _, in := range w.insts {
		xs := make([]*bitvec.Vector, 8)
		for i := range xs {
			xs[i] = randomVector(in.p.N(), r)
		}
		timeLoop(per, 1, func(i int) {
			t := time.Now()
			in.p.Energy(xs[i%len(xs)])
			walls = append(walls, float64(time.Since(t).Nanoseconds())/1e6)
		})
	}
	m["qubo.energy_ms"] = median(walls)
}

func randomVector(n int, r *rand.Rand) *bitvec.Vector {
	x := bitvec.New(n)
	for i := 0; i < n; i++ {
		x.Set(i, r.IntN(2))
	}
	return x
}

// straightBackend builds the straight backend the engine would run on
// in's instance, with the engine's normalized options, and returns it
// with the engine's block shape.
func straightBackend(w *workload, in *instance) (backend.Backend, *core.Engine, error) {
	eng, err := core.NewEngine(in.p, w.solveOptions(0))
	if err != nil {
		return nil, nil, err
	}
	eng.Finish(false)
	opt := eng.Options()
	newState := func() qubo.Engine { return qubo.NewZeroState(in.p) }
	if eng.Storage() == core.StorageSparse {
		sp := qubo.Sparsify(in.p)
		newState = func() qubo.Engine { return qubo.NewSparseZeroState(sp) }
	}
	be, err := backend.New(string(core.BackendStraight), backend.Config{
		Problem:    in.p,
		NewState:   newState,
		Units:      eng.BlocksPerDevice() * eng.MaxDevices(),
		Seed:       opt.Seed,
		LocalSteps: opt.LocalSteps,
		WindowMin:  opt.WindowMin,
		WindowMax:  opt.WindowMax,
	})
	return be, eng, err
}

// probeSearch times one straight unit's Round and Retarget on one
// goroutine, per instance. Targets are the unit's own round-best
// solutions from earlier rounds, standing in for the host's pool
// targets.
func probeSearch(w *workload, r *rand.Rand, m map[string]float64) error {
	var flips, retargets, retargetFlips int
	var busy time.Duration
	var rounds []float64
	var stopFlag atomic.Bool
	stop := stopFlag.Load
	per := w.probeBudget() / time.Duration(len(w.insts))
	for _, in := range w.insts {
		be, _, err := straightBackend(w, in)
		if err != nil {
			return err
		}
		u := be.NewUnit(0)
		var past []*bitvec.Vector
		start := time.Now()
		for time.Since(start) < per || len(rounds) == 0 {
			if len(past) > 0 {
				t := time.Now()
				f := u.Retarget(past[r.IntN(len(past))], stop)
				busy += time.Since(t)
				flips += f
				retargetFlips += f
				retargets++
			}
			t := time.Now()
			f, x, _, ok := u.Round(stop)
			d := time.Since(t)
			busy += d
			flips += f
			rounds = append(rounds, float64(d.Nanoseconds())/1e6)
			if ok {
				past = append(past, x)
				if len(past) > 4 {
					past = past[1:]
				}
			}
		}
	}
	m["search.unit_flips_per_s"] = float64(flips) / busy.Seconds()
	m["search.round_ms"] = median(rounds)
	m["search.retarget_flips"] = ratio(float64(retargetFlips), float64(retargets))
	return nil
}

// probeFleet launches straight units on a fleet of the engine's shape
// with no host — nothing drains publications or hands out targets — and
// times the launches until every DeviceRun.Stop has returned.
func probeFleet(w *workload, tr *tracer, m map[string]float64) error {
	var flips atomic.Uint64
	var busy time.Duration
	per := 4 * w.probeBudget() / time.Duration(len(w.insts))
	for _, in := range w.insts {
		be, eng, err := straightBackend(w, in)
		if err != nil {
			return err
		}
		fleet, err := gpusim.NewFleet(eng.Options().Device, eng.MaxDevices())
		if err != nil {
			return err
		}
		bpd := eng.BlocksPerDevice()
		block := func(bc gpusim.BlockContext) {
			u := be.NewUnit(bc.GlobalBlock)
			for !bc.Stopped() {
				f, _, _, _ := u.Round(bc.Stopped)
				flips.Add(uint64(f))
			}
		}
		start := time.Now()
		root := tr.open("gpusim.fleet", 0, -1, start)
		runs := make([]*gpusim.DeviceRun, fleet.Size())
		for i := range runs {
			if runs[i], err = fleet.Device(i).Launch(bpd, i*bpd, block); err != nil {
				for _, run := range runs[:i] {
					run.Stop()
				}
				return err
			}
		}
		time.Sleep(per)
		for _, run := range runs {
			t := time.Now()
			run.Stop()
			tr.add("gpusim.stop", root, -1, t, time.Now())
		}
		end := time.Now()
		tr.close(root, end)
		busy += end.Sub(start)
	}
	m["gpusim.fleet_flips_per_s"] = float64(flips.Load()) / busy.Seconds()
	m["gpusim.stop_ms"] = median(tr.durations("gpusim.stop"))
	return nil
}

// probeCore runs traced solves of the serve workload's job instances
// with the job options, both devices attached: the core metrics of a
// job without the scheduler around it.
func probeCore(ctx context.Context, w *workload, tr *tracer) []opRecord {
	var ops []opRecord
	start := time.Now()
	for op := 0; op < 2*len(w.insts) || time.Since(start) < 2*w.probeBudget(); op++ {
		in := w.insts[op%len(w.insts)]
		res, err := tracedSolve(ctx, tr, coreProbeOps+op, in.p, w.solveOptions(coreProbeOps+op))
		ops = append(ops, opRecord{inst: in, res: res, err: err})
	}
	return ops
}

// Probe operations take IDs from these offsets, apart from the workload's
// own operations, so their solver seeds differ.
const (
	coreProbeOps  = 1_000_000
	serveProbeOps = 2_000_000
)

// probeServe runs a few sequential jobs of a solve workload's instance
// through a serve.Service with the workload's devices and options, at
// 1/16 of the solve budget: the serve metrics for that instance.
func probeServe(ctx context.Context, w *workload, tr *tracer) ([]opRecord, error) {
	svc, err := serve.New(serve.Config{NumDevices: w.opt.NumGPUs, Defaults: w.opt})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	in := w.insts[0]
	var ops []opRecord
	for op := 0; op < 6; op++ {
		spec := serve.JobSpec{Name: in.name, MaxFlips: w.maxFlips / 16, Seed: w.solverSeed(serveProbeOps + op)}
		ops = append(ops, submitJob(ctx, svc, tr, in, spec, serveProbeOps+op, true))
	}
	return ops, nil
}

func (w *workload) probeBudget() time.Duration { return seconds(w.size.probeSeconds) }
