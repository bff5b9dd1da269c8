package main

import (
	"fmt"
	"hash/fnv"

	"abs/internal/chimera"
	"abs/internal/core"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/randqubo"
)

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"dense-2048", "gset-g22", "serve-jobs"}

// sizing fixes instance sizes and flip budgets. fullSize is what the
// benchmark runs; tinySize keeps the package's own tests fast.
type sizing struct {
	denseN       int     // dense-2048: randqubo size
	denseFlips   uint64  // dense-2048: MaxFlips per solve
	gsetN, gsetM int     // gset-g22: vertices and edges
	gsetFlips    uint64  // gset-g22: MaxFlips per solve
	jobDenseN    int     // serve-jobs: dense job size
	jobChimeraM  int     // serve-jobs: Chimera C_M job topology
	jobFlips     uint64  // serve-jobs: MaxFlips per job
	setupSeconds float64 // wall budget of the NewEngine repetitions behind setup_s
	probeSeconds float64 // wall budget of each layer probe
}

var fullSize = sizing{
	denseN: 2048, denseFlips: 2_000_000,
	gsetN: 2000, gsetM: 19990, gsetFlips: 15_000_000,
	jobDenseN: 256, jobChimeraM: 6, jobFlips: 100_000,
	setupSeconds: 1, probeSeconds: 0.25,
}

var tinySize = sizing{
	denseN: 64, denseFlips: 20_000,
	gsetN: 80, gsetM: 240, gsetFlips: 20_000,
	jobDenseN: 32, jobChimeraM: 2, jobFlips: 4_000,
	setupSeconds: 0.01, probeSeconds: 0.01,
}

// instance is one generated problem with its benchmark-owned quality
// reference (see reference in check.go).
type instance struct {
	name    string
	p       *qubo.Problem
	descent int64 // median steepest-descent local minimum
	ref     int64 // descent loosened by referenceMargin
}

// workload is everything one run needs: the generated instances, the
// solver options and the loop shape. It is a pure function of the
// workload name, the seed and the sizing.
type workload struct {
	name  string
	seed  uint64
	serve bool // closed loop of serve jobs rather than sequential solves
	// insts holds the solve instance (one) or the job mix, cycled by
	// the clients.
	insts []*instance
	// opt carries every solver option except Seed and MaxFlips, which
	// each operation sets (serve: the service defaults).
	opt      core.Options
	maxFlips uint64
	size     sizing
}

// serve-jobs runs serveClients closed-loop clients, one per CPU of the
// 2-CPU host it was sized on, against a fleet of serveDevices devices.
const (
	serveClients = 2
	serveDevices = 2
)

// mix derives a 64-bit value from the run seed and a label (splitmix64
// over an FNV hash of the label), so every instance and every solver
// seed is a deterministic function of --seed.
func mix(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // serve.JobSpec treats Seed 0 as "service default"
	}
	return z
}

// solverSeed is the solver seed of operation op (a solve or a job).
func (w *workload) solverSeed(op int) uint64 {
	return mix(w.seed, fmt.Sprintf("%s/solver/%d", w.name, op))
}

// opInstance is the instance operation op of a client runs on: serve
// jobs alternate the dense and the Chimera kinds.
func (w *workload) opInstance(client, op int) *instance {
	return w.insts[(client+op)%len(w.insts)]
}

// solveOptions returns the options of solve op.
func (w *workload) solveOptions(op int) core.Options {
	opt := w.opt
	opt.Seed = w.solverSeed(op)
	opt.MaxFlips = w.maxFlips
	return opt
}

func newWorkload(name string, seed uint64, size sizing) (*workload, error) {
	w := &workload{name: name, seed: seed, size: size, opt: core.DefaultOptions()}
	add := func(label string, p *qubo.Problem) {
		p.SetName(label)
		w.insts = append(w.insts, &instance{name: label, p: p})
	}
	switch name {
	case "dense-2048":
		w.opt.NumGPUs = 2
		w.opt.Backend = core.BackendStraight
		w.maxFlips = size.denseFlips
		add("randqubo", randqubo.Generate(size.denseN, mix(seed, name+"/instance")))
	case "gset-g22":
		w.maxFlips = size.gsetFlips
		g, err := maxcut.GenerateRandom(size.gsetN, size.gsetM, maxcut.WeightsPlusOne, mix(seed, name+"/instance"))
		if err != nil {
			return nil, err
		}
		p, err := maxcut.ToQUBO(g)
		if err != nil {
			return nil, err
		}
		add("g22-twin", p)
	case "serve-jobs":
		w.serve = true
		w.opt.NumGPUs = serveDevices
		w.maxFlips = size.jobFlips
		for k := 0; k < 2; k++ {
			add(fmt.Sprintf("randqubo-%d", k),
				randqubo.Generate(size.jobDenseN, mix(seed, fmt.Sprintf("%s/dense/%d", name, k))))
			m, err := chimera.RandomInstance(chimera.Topology{M: size.jobChimeraM}, 7, 3,
				mix(seed, fmt.Sprintf("%s/chimera/%d", name, k)))
			if err != nil {
				return nil, err
			}
			p, _, err := m.ToQUBO()
			if err != nil {
				return nil, err
			}
			add(fmt.Sprintf("chimera-%d", k), p)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	for i, in := range w.insts {
		in.descent, in.ref = reference(in.p, mix(seed, fmt.Sprintf("%s/reference/%d", name, i)))
	}
	return w, nil
}
