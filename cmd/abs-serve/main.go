// Command abs-serve runs the Adaptive Bulk Search solver as a long-
// lived HTTP service: one simulated device fleet, many concurrent jobs
// scheduled onto it fair-share.
//
// Usage:
//
//	abs-serve [-addr :8080] [-gpus 2] [-sms 2] [-queue-cap 16]
//	          [-retain 64] [-default-time 10s] [-max-time 5m]
//	          [-store /var/lib/abs]
//
// With -store the service is crash-recoverable: every accepted job's
// spec and terminal result are journaled to the directory, and a
// restarted process answers the same job queries the old one would
// have — finished jobs keep their results, unfinished jobs re-queue
// under their original IDs. In coordinator mode -store (plus the
// -checkpoint cadence) periodically snapshots the pool and run status;
// a restart resumes the run and workers re-register on their own.
//
// API (JSON):
//
//	POST   /v1/jobs             submit a job; 202 on accept, 429 when
//	                            the queue is full (backpressure)
//	GET    /v1/jobs             list live and retained jobs
//	GET    /v1/jobs/{id}        status, plus the result once settled
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events NDJSON status stream until settled
//	GET    /healthz, /readyz    liveness and readiness probes
//
// A submission carries either an inline text-format QUBO ("problem")
// or a server-side generator spec ("random": {"n": 512, "seed": 7}),
// plus stop conditions: "time" (Go duration), "max_flips",
// "target_energy". "max_devices" caps the job's fair share of the
// fleet.
//
// Coordinator mode turns the process into a multi-node cluster head
// instead: it owns the authoritative GA pool for ONE instance and
// serves the worker lease/publish protocol (see internal/cluster and
// cmd/abs-worker) rather than the job API:
//
//	abs-serve -coordinator -random-n 512 -time 30s [-target -4000]
//	          [-lease-ttl 10s] [-lease-batch 32] [-linger 3s]
//	abs-serve -coordinator -file instance.qubo -target -4100 -time 5m
//
// The same listener exposes the telemetry plane in both modes:
// Prometheus text at /metrics, a JSON snapshot at /metrics.json, the
// recent lifecycle event ring at /trace and pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abs/internal/cluster"
	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/health"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/serve"
	"abs/internal/store"
	"abs/internal/telemetry"
)

type config struct {
	addr        string
	gpus, sms   int
	queueCap    int
	retain      int
	defaultTime time.Duration
	maxTime     time.Duration
	run         core.RunSpec

	// Durability (both modes).
	storeDir   string
	checkpoint time.Duration

	// Coordinator mode.
	coordinator bool
	file        string
	randomN     int
	seed        uint64
	target      int64
	hasTarget   bool
	runTime     time.Duration
	maxFlips    uint64
	leaseTTL    time.Duration
	leaseBatch  int
	linger      time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.gpus, "gpus", 2, "fleet size (simulated devices)")
	flag.IntVar(&cfg.sms, "sms", 2, "SMs per simulated device (0 = full RTX 2080 Ti)")
	flag.IntVar(&cfg.queueCap, "queue-cap", 16, "max jobs waiting for a device before 429")
	flag.IntVar(&cfg.retain, "retain", 64, "settled jobs kept queryable")
	flag.DurationVar(&cfg.defaultTime, "default-time", 10*time.Second, "wall-clock budget for jobs that set no stop condition")
	flag.DurationVar(&cfg.maxTime, "max-time", 5*time.Minute, "hard cap on any job's wall-clock budget")
	flag.StringVar(&cfg.storeDir, "store", "", "directory for durable state; a restart recovers jobs (job mode) or the run checkpoint (coordinator mode)")
	flag.DurationVar(&cfg.checkpoint, "checkpoint", 0, "coordinator: checkpoint cadence when -store is set (default 2s)")

	flag.BoolVar(&cfg.coordinator, "coordinator", false, "run as a multi-node cluster coordinator instead of the job service")
	flag.StringVar(&cfg.file, "file", "", "coordinator: instance in the qubo text format")
	flag.IntVar(&cfg.randomN, "random-n", 0, "coordinator: generate a random dense instance of this size instead of -file")
	flag.Uint64Var(&cfg.seed, "seed", 1, "coordinator: seed for the pool, worker seeds and -random-n generation")
	flag.Int64Var(&cfg.target, "target", 0, "coordinator: stop once the pool's best energy is <= this")
	flag.DurationVar(&cfg.runTime, "time", 0, "coordinator: wall-clock budget for the run")
	flag.Uint64Var(&cfg.maxFlips, "max-flips", 0, "coordinator: stop after this many cluster-wide flips")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", 0, "coordinator: lease TTL (default 10s)")
	flag.IntVar(&cfg.leaseBatch, "lease-batch", 0, "coordinator: targets granted per lease call (default 32)")
	flag.DurationVar(&cfg.linger, "linger", 3*time.Second, "coordinator: how long to keep serving after the run finishes so workers can flush")
	cfg.run.Flag(flag.CommandLine, "storage", "job mode: every job's storage, which a job cannot name; coordinator mode: granted to workers")
	cfg.run.Flag(flag.CommandLine, "backend", "job mode: default for jobs that name none; coordinator mode: granted to workers")
	cfg.run.Flag(flag.CommandLine, "diversity", "job mode: default for jobs that name no spec; coordinator mode: granted to workers")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "target" {
			cfg.hasTarget = true
		}
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abs-serve:", err)
		os.Exit(1)
	}
}

// run starts the service and serves until ctx is cancelled; split from
// main so tests can drive a whole server lifecycle in-process.
func run(ctx context.Context, cfg config, out *os.File) error {
	if cfg.coordinator {
		return runCoordinator(ctx, cfg, out)
	}
	svc, reg, tr, err := newService(cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	// A crash must leave a postmortem next to the job journal: dump the
	// flight recorder (recent spans + events + metrics snapshot) through
	// the store before re-panicking. No-op without -store.
	defer func() {
		if r := recover(); r != nil {
			svc.DumpFlight(fmt.Sprintf("panic: %v", r))
			panic(r)
		}
	}()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           serve.NewHTTPHandler(svc, reg, tr),
		ReadHeaderTimeout: 5 * time.Second,
	}
	spec, size := svc.Fleet()
	fmt.Fprintf(out, "abs-serve: fleet %d × %s\n", size, spec.Name)
	fmt.Fprintf(out, "abs-serve: listening on http://%s/v1/jobs (metrics at /metrics)\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		fmt.Fprintln(out, "abs-serve: shutting down")
		svc.DumpFlight("sigterm: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
		return nil
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// runCoordinator is the cluster-head lifecycle: build the coordinator,
// serve the worker protocol until a stop condition fires (or ctx dies),
// linger so workers can flush their final publications, report.
func runCoordinator(ctx context.Context, cfg config, out *os.File) error {
	p, err := loadProblem(cfg)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(1 << 14)
	telemetry.StampBuildInfo(reg)
	ccfg := cluster.CoordinatorConfig{
		Seed:        cfg.seed,
		MaxDuration: cfg.runTime,
		MaxFlips:    cfg.maxFlips,
		LeaseTTL:    cfg.leaseTTL,
		LeaseBatch:  cfg.leaseBatch,
		Run:         cfg.run,
		Registry:    reg,
		Tracer:      tr,
		Checkpoint:  cfg.checkpoint,
	}
	if cfg.hasTarget {
		t := cfg.target
		ccfg.TargetEnergy = &t
	}
	var coord *cluster.Coordinator
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		ccfg.Store = st
		var resumed bool
		coord, resumed, err = cluster.RestoreCoordinator(p, ccfg)
		if err != nil {
			return err
		}
		if resumed {
			rst := coord.Status()
			fmt.Fprintf(out, "abs-serve: resumed from checkpoint (best known: %v, %d flips, %v elapsed)\n",
				rst.BestKnown, rst.Flips, rst.Elapsed.Round(time.Millisecond))
		}
	} else {
		coord, err = cluster.NewCoordinator(p, ccfg)
		if err != nil {
			return err
		}
	}
	defer coord.Close()
	// Crash and kill postmortems: the flight recorder dumps through the
	// coordinator's store (no-op without one) so a dead coordinator
	// leaves its recent spans, events and metrics next to its last
	// checkpoint.
	defer func() {
		if r := recover(); r != nil {
			coord.DumpFlight(fmt.Sprintf("panic: %v", r))
			panic(r)
		}
	}()

	mux := http.NewServeMux()
	mux.Handle("/v1/cluster/", cluster.NewHTTPHandler(coord))
	health.Register(mux, func() bool {
		select {
		case <-coord.Done():
			return false
		default:
			return true
		}
	})
	mux.Handle("/", telemetry.NewHandler(reg, tr))

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	fmt.Fprintf(out, "abs-serve: coordinator for %d-bit instance on http://%s/v1/cluster (metrics at /metrics)\n",
		p.N(), ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-coord.Done():
		// Keep serving while workers notice Done and flush.
		fmt.Fprintf(out, "abs-serve: run finished, lingering %v for worker flushes\n", cfg.linger)
		select {
		case <-time.After(cfg.linger):
		case <-ctx.Done():
		}
	case <-ctx.Done():
		coord.DumpFlight("sigterm: shutting down")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	st := coord.Status()
	if st.BestKnown {
		fmt.Fprintf(out, "abs-serve: best energy %d after %d cluster flips (%d workers, target reached: %v)\n",
			st.BestEnergy, st.Flips, st.Workers, st.ReachedTarget)
	} else {
		fmt.Fprintln(out, "abs-serve: no worker ever published")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
	return nil
}

// loadProblem resolves the coordinator's instance source.
func loadProblem(cfg config) (*qubo.Problem, error) {
	switch {
	case cfg.file != "" && cfg.randomN > 0:
		return nil, fmt.Errorf("set exactly one of -file and -random-n")
	case cfg.file != "":
		f, err := os.Open(cfg.file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return qubo.ReadText(f)
	case cfg.randomN > 0:
		seed := cfg.seed
		if seed == 0 {
			seed = 1
		}
		return randqubo.Generate(cfg.randomN, seed), nil
	default:
		return nil, fmt.Errorf("coordinator mode needs a problem: -file or -random-n")
	}
}

// newService builds the Service plus its telemetry plane from flags.
func newService(cfg config) (*serve.Service, *telemetry.Registry, *telemetry.Tracer, error) {
	defaults := core.DefaultOptions()
	defaults.MaxDuration = cfg.defaultTime
	if err := cfg.run.Apply(&defaults); err != nil {
		return nil, nil, nil, err
	}

	var device gpusim.DeviceSpec
	if cfg.sms == 0 {
		device = gpusim.TuringRTX2080Ti()
	} else {
		device = gpusim.ScaledCPU(cfg.sms)
	}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(1 << 14)
	telemetry.StampBuildInfo(reg)
	scfg := serve.Config{
		Device:         device,
		NumDevices:     cfg.gpus,
		Defaults:       defaults,
		QueueCap:       cfg.queueCap,
		RetainResults:  cfg.retain,
		MaxJobDuration: cfg.maxTime,
		Registry:       reg,
		Tracer:         tr,
	}
	if cfg.storeDir != "" {
		st, err := store.Open(cfg.storeDir)
		if err != nil {
			return nil, nil, nil, err
		}
		scfg.Store = st
	}
	svc, err := serve.New(scfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return svc, reg, tr, nil
}
