// Command abs-solve runs the Adaptive Bulk Search solver on a problem
// file and prints the best solution found.
//
// Usage:
//
//	abs-solve -file problem.qubo [-format qubo|qubobin|gset|tsplib|ising]
//	          [-time 5s] [-target -12345 -use-target] [-gpus 1] [-sms 2]
//	          [-bits-per-thread 0] [-seed 1] [-storage auto|dense|sparse]
//	          [-backend auto|straight|tabu|race]
//	          [-solution] [-v] [-presolve]
//	          [-metrics-addr :9090] [-trace-out run.jsonl]
//
// The format defaults from the file extension: .qubo/.txt → qubo text
// (including qbsolv-style headers), .qbin → binary, .gset/.mc → G-set
// Max-Cut, .tsp → TSPLIB, .ising → h/J Ising. Max-Cut inputs report the
// cut value, TSP inputs decode and validate the tour, and Ising inputs
// report the Hamiltonian, in addition to the raw energy. -presolve
// applies persistency-based variable fixing before the search; -v
// streams progress to stderr.
//
// -metrics-addr serves live telemetry while the run is in flight:
// Prometheus text at /metrics, a JSON snapshot at /metrics.json, the
// recent event ring at /trace, pprof under /debug/pprof/ and expvar at
// /debug/vars. -trace-out streams every lifecycle event (target and
// solution publishes, ingest verdicts, respawns, retirements, pool
// admissions) as one JSON object per line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/ising"
	"abs/internal/maxcut"
	"abs/internal/obsflags"
	"abs/internal/qubo"
	"abs/internal/tsp"
)

// config collects the flag surface of one invocation.
type config struct {
	file, format  string
	budget        time.Duration
	target        int64
	hasTarget     bool
	gpus, sms     int
	bitsPerThread int
	seed          uint64
	run           core.RunSpec
	showSolution  bool
	verbose       bool
	presolve      bool
	trustDevices  bool
	grace         time.Duration
	obs           obsflags.Config
}

func main() {
	var cfg config
	flag.StringVar(&cfg.file, "file", "", "problem file (required)")
	flag.StringVar(&cfg.format, "format", "", "qubo|qubobin|gset|tsplib (default: by extension)")
	flag.DurationVar(&cfg.budget, "time", 5*time.Second, "wall-clock budget")
	flag.Int64Var(&cfg.target, "target", 0, "target energy (stops early when reached)")
	flag.BoolVar(&cfg.hasTarget, "use-target", false, "enable the -target stop condition")
	flag.IntVar(&cfg.gpus, "gpus", 1, "number of simulated GPUs")
	flag.IntVar(&cfg.sms, "sms", 2, "SMs per simulated GPU (0 = full RTX 2080 Ti)")
	flag.IntVar(&cfg.bitsPerThread, "bits-per-thread", 0, "bits per thread (0 = auto)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	cfg.run.Flags(flag.CommandLine, "")
	flag.BoolVar(&cfg.showSolution, "solution", false, "print the solution bit vector")
	flag.BoolVar(&cfg.verbose, "v", false, "print progress once per second")
	flag.BoolVar(&cfg.presolve, "presolve", false, "apply persistency-based variable fixing before solving")
	flag.BoolVar(&cfg.trustDevices, "trust-devices", false, "skip host-side publication validation (the paper's pure §3.1 protocol)")
	flag.DurationVar(&cfg.grace, "grace", 0, "supervisor grace period before a silent block is respawned (0 = default 2s)")
	cfg.obs.Register(flag.CommandLine)
	flag.Parse()
	if cfg.file == "" {
		flag.Usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the solve context: the run shuts down
	// cleanly and the partial result is still printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, cfg)
	switch {
	case errors.Is(err, errUnfinished):
		fmt.Fprintln(os.Stderr, "abs-solve:", err)
		os.Exit(3)
	case err != nil:
		fmt.Fprintln(os.Stderr, "abs-solve:", err)
		os.Exit(1)
	}
}

// errUnfinished marks a run that ended without doing what was asked:
// interrupted, or out of budget before reaching the requested target.
// main turns it into a distinct non-zero exit code so scripts can tell
// "searched and missed" from "could not run".
var errUnfinished = errors.New("run did not complete")

func detectFormat(file, format string) string {
	if format != "" {
		return format
	}
	switch strings.ToLower(filepath.Ext(file)) {
	case ".qbin":
		return "qubobin"
	case ".gset", ".mc":
		return "gset"
	case ".tsp":
		return "tsplib"
	case ".ising":
		return "ising"
	default:
		return "qubo"
	}
}

func run(ctx context.Context, cfg config) error {
	f, err := os.Open(cfg.file)
	if err != nil {
		return err
	}
	defer f.Close()

	var (
		p           *qubo.Problem
		g           *maxcut.Graph
		enc         *tsp.Encoding
		spins       *ising.Model
		isingOffset int64
	)
	switch detectFormat(cfg.file, cfg.format) {
	case "qubo":
		p, err = qubo.ReadText(f)
	case "qubobin":
		p, err = qubo.ReadBinary(f)
	case "ising":
		spins, err = ising.Read(f)
		if err == nil {
			p, isingOffset, err = spins.ToQUBO()
		}
	case "gset":
		g, err = maxcut.ReadGSet(f)
		if err == nil {
			if g.Name() == "" {
				g.SetName(filepath.Base(cfg.file))
			}
			p, err = maxcut.ToQUBO(g)
		}
	case "tsplib":
		var inst *tsp.Instance
		inst, err = tsp.ReadTSPLIB(f)
		if err == nil {
			enc, err = tsp.Encode(inst)
		}
		if err == nil {
			p = enc.Problem()
		}
	default:
		return fmt.Errorf("unknown format %q", cfg.format)
	}
	if err != nil {
		return err
	}
	if p.Name() == "" {
		p.SetName(filepath.Base(cfg.file))
	}

	opt := core.DefaultOptions()
	opt.MaxDuration = cfg.budget
	opt.NumGPUs = cfg.gpus
	opt.Seed = cfg.seed
	opt.BitsPerThread = cfg.bitsPerThread
	if cfg.sms == 0 {
		opt.Device = gpusim.TuringRTX2080Ti()
	} else {
		opt.Device = gpusim.ScaledCPU(cfg.sms)
	}
	if cfg.hasTarget {
		opt.TargetEnergy = &cfg.target
	}
	if err := cfg.run.Apply(&opt); err != nil {
		return err
	}
	opt.TrustPublications = cfg.trustDevices
	opt.SupervisorGrace = cfg.grace
	if cfg.verbose {
		opt.ProgressWriter = os.Stderr
	}

	// Telemetry: a live endpoint, a JSONL event dump, or both, via the
	// shared flag plane. The tracer's ring also backs the endpoint's
	// /trace view, so one is created whenever either sink is requested.
	obs, err := cfg.obs.Open()
	if err != nil {
		return err
	}
	defer obs.Close()
	opt.Telemetry = obs.Registry
	opt.Tracer = obs.Tracer
	if addr := obs.Addr(); addr != "" {
		fmt.Printf("telemetry: http://%s/metrics (JSON at /metrics.json, events at /trace)\n", addr)
	}

	fmt.Printf("instance: %s (%d bits, density %.3f)\n", p.Name(), p.N(), p.Density())
	fmt.Printf("cluster: %d × %s, %d bits/thread requested\n", cfg.gpus, opt.Device.Name, cfg.bitsPerThread)

	// Optional presolve: solve the persistency-reduced instance and
	// expand the answer back to the original variable space.
	var pre *qubo.PresolveResult
	solveProblem := p
	if cfg.presolve {
		pre, err = qubo.Presolve(p)
		if err != nil {
			return err
		}
		fixed := p.N()
		if pre.Reduced != nil {
			fixed -= pre.Reduced.N()
		}
		fmt.Printf("presolve: fixed %d of %d variables (offset %d)\n", fixed, p.N(), pre.Offset)
		if pre.Reduced == nil {
			// Everything fixed: the instance is solved outright.
			x, err := pre.Expand(nil)
			if err != nil {
				return err
			}
			fmt.Printf("best energy: %d (exact, by presolve alone)\n", p.Energy(x))
			if cfg.showSolution {
				fmt.Println("solution:", x)
			}
			return nil
		}
		solveProblem = pre.Reduced
		if cfg.hasTarget {
			reduced := cfg.target - pre.Offset
			opt.TargetEnergy = &reduced
		}
	}

	res, err := core.SolveContext(ctx, solveProblem, opt)
	if err != nil {
		return err
	}
	if res.Cancelled {
		fmt.Println("interrupted — reporting partial results")
	}
	if pre != nil {
		full, err := pre.Expand(res.Best)
		if err != nil {
			return err
		}
		res.Best = full
		res.BestEnergy += pre.Offset
	}
	fmt.Printf("blocks: %d (%d threads/block, %d blocks/GPU, occupancy %.0f%%, %s engine, %s backend)\n",
		res.Blocks, res.Occupancy.ThreadsPerBlock, res.Occupancy.ActiveBlocks, res.Occupancy.Fraction*100, res.Storage, res.Backend)
	fmt.Printf("elapsed: %v   flips: %d   evaluated: %d   search rate: %.3g sol/s\n",
		res.Elapsed.Round(time.Millisecond), res.Flips, res.Evaluated, res.SearchRate)
	fmt.Printf("fault tolerance: %d quarantined, %d respawned, %d retired, %d dropped\n",
		res.Quarantined, res.Recovered, res.Retired, res.Dropped)
	fmt.Printf("best energy: %d", res.BestEnergy)
	if cfg.hasTarget {
		fmt.Printf("   target %d reached: %v", cfg.target, res.ReachedTarget)
	}
	fmt.Println()

	switch {
	case g != nil:
		cut := maxcut.CutValue(g, res.Best)
		fmt.Printf("max-cut value: %d (of total weight %d)\n", cut, g.TotalWeight())
	case enc != nil:
		reportTour(enc, res.Best)
	case spins != nil:
		// 2E = H + C, so the Hamiltonian of the found state is 2E − C.
		fmt.Printf("ising hamiltonian: %d\n", 2*res.BestEnergy-isingOffset)
	}
	if cfg.showSolution {
		fmt.Println("solution:", res.Best)
	}
	switch {
	case res.Cancelled:
		return fmt.Errorf("%w: interrupted after %v", errUnfinished, res.Elapsed.Round(time.Millisecond))
	case cfg.hasTarget && !res.ReachedTarget:
		return fmt.Errorf("%w: budget exhausted before target %d (best %d)", errUnfinished, cfg.target, res.BestEnergy)
	}
	return nil
}

func reportTour(enc *tsp.Encoding, x *bitvec.Vector) {
	tour, err := enc.DecodeTour(x)
	if err != nil {
		fmt.Printf("tour: invalid (%v) — increase -time\n", err)
		return
	}
	l, err := enc.Instance().TourLength(tour)
	if err != nil {
		fmt.Printf("tour: %v\n", err)
		return
	}
	fmt.Printf("tour length: %d\ntour: %v\n", l, tour)
}
