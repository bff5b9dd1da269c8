// Package abs is the public surface of the Adaptive Bulk Search QUBO
// solver. One import covers the whole API: problems (NewProblem,
// ReadProblem, RandomProblem), one-shot solves (SolveContext and its
// convenience wrappers), and the multi-job Solver service (New, Submit,
// Job) that shares one simulated device fleet across concurrent solves.
package abs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"abs/internal/backend"
	"abs/internal/bitvec"
	"abs/internal/chaos"
	"abs/internal/cluster"
	"abs/internal/core"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/sa"
	"abs/internal/serve"
	"abs/internal/store"
	"abs/internal/telemetry"
)

// Core problem and solution types, re-exported from the implementation
// packages so that one import covers the whole public surface.
type (
	// Problem is a QUBO instance: an n×n symmetric matrix of 16-bit
	// weights whose energy Xᵀ W X is to be minimized over n-bit X.
	Problem = qubo.Problem
	// Vector is an n-bit candidate solution.
	Vector = bitvec.Vector
	// Options configures Solve; see DefaultOptions and PaperOptions.
	Options = core.Options
	// Result reports a finished solve.
	Result = core.Result
	// GAConfig tunes the host genetic algorithm.
	GAConfig = ga.Config
	// DeviceSpec describes a simulated GPU model.
	DeviceSpec = gpusim.DeviceSpec
	// Storage selects the search-engine representation (auto, dense,
	// sparse).
	Storage = core.Storage
	// Backend selects the solver backend each search unit runs
	// (straight, tabu, race, or auto); see Backends for the live
	// registry with descriptions.
	Backend = core.Backend
	// BackendInfo describes one registered solver backend.
	BackendInfo = backend.Info
	// BackendStat is the per-backend tally in Result.BackendStats:
	// admissions, improvements and the unit split.
	BackendStat = core.BackendStat
	// RunSpec is the storage and backend choice in the text
	// form flags, job specs and cluster grants carry. A set field wins
	// over the layer below (RunSpec.Over), "auto" or empty means unset,
	// and Apply parses it into Options.
	RunSpec = core.RunSpec

	// Progress is the periodic run snapshot passed to Options.Progress
	// and reported live by Job.Status.
	Progress = core.Progress
	// BlockStat is the per-search-unit record in Result.BlockStats.
	BlockStat = core.BlockStat
	// Occupancy is the per-device residency report in Result.Occupancy.
	Occupancy = gpusim.Occupancy
	// FaultPlan schedules injected block faults (Options.Faults); it is
	// the test hook behind the fault-tolerance layer. See NewFaultPlan.
	FaultPlan = gpusim.FaultPlan
	// FaultCounts tallies what a FaultPlan actually injected.
	FaultCounts = gpusim.FaultCounts
	// Telemetry is the metrics registry accepted by Options.Telemetry
	// and served at /metrics; see NewTelemetry.
	Telemetry = telemetry.Registry
	// Tracer records structured lifecycle events (Options.Tracer); see
	// NewTracer.
	Tracer = telemetry.Tracer
	// TraceEvent is one structured record in a Tracer's ring.
	TraceEvent = telemetry.Event
	// EventKind names the kind of a TraceEvent; the kinds are plain
	// strings ("target_publish", "job_submit", …) so they compare
	// directly against string literals.
	EventKind = telemetry.EventKind
)

// NewTelemetry returns an empty metrics registry for Options.Telemetry
// or Solver wiring.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// NewTracer returns a tracer whose ring keeps the most recent capacity
// events.
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// NewFaultPlan returns an empty fault-injection plan whose random
// choices derive deterministically from seed; attach it via
// Options.Faults.
func NewFaultPlan(seed uint64) *FaultPlan { return gpusim.NewFaultPlan(seed) }

// Storage constants, re-exported from the core package.
const (
	// StorageAuto picks dense or sparse per instance density.
	StorageAuto = core.StorageAuto
	// StorageDense always uses the paper's dense kernel.
	StorageDense = core.StorageDense
	// StorageSparse always uses the adjacency engine.
	StorageSparse = core.StorageSparse
)

// ParseStorage parses "auto", "dense" or "sparse" into a Storage value
// (the decoder behind every -storage CLI flag).
func ParseStorage(s string) (Storage, error) { return core.ParseStorage(s) }

// Backend constants, re-exported from the core package. The registry
// is open — Backends lists everything registered — but these three ship
// with the library.
const (
	// BackendAuto defers the choice: a cluster worker takes the
	// coordinator's grant, everything else runs BackendStraight.
	BackendAuto = core.BackendAuto
	// BackendStraight is the paper's §3.2 program: straight search to
	// the pool target, then bulk local search on the window ladder.
	BackendStraight = core.BackendStraight
	// BackendTabu is diversified multi-start tabu search: tenure-ring
	// local search with escalating restart kicks on stagnation.
	BackendTabu = core.BackendTabu
	// BackendRace splits a run's units g mod 2 across straight and
	// tabu, racing through the shared pool.
	BackendRace = core.BackendRace
)

// ErrUnknownBackend is the typed error Options.Validate (and every
// parse path above it) returns for an unregistered backend name; test
// with errors.Is.
var ErrUnknownBackend = core.ErrUnknownBackend

// ParseBackend parses "auto" or a registered backend name into a
// Backend value (the decoder behind every -backend CLI flag); the
// error for an unknown name lists the registry.
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// Backends lists the registered solver backends with their one-line
// descriptions, sorted by name (the body of GET /v1/backends).
func Backends() []BackendInfo { return core.Backends() }

// NewProblem returns an all-zero n-variable QUBO instance; fill it with
// SetWeight/AddWeight.
func NewProblem(n int) *Problem { return qubo.New(n) }

// RandomProblem returns the paper's §4.1.3 synthetic benchmark: a dense
// instance with uniform 16-bit weights, deterministic in seed.
func RandomProblem(n int, seed uint64) *Problem { return randqubo.Generate(n, seed) }

// ReadProblem parses an instance in the text format (see
// internal/qubo's documentation; qbsolv-style "p qubo n m" header plus
// "i j w" entries).
func ReadProblem(r io.Reader) (*Problem, error) { return qubo.ReadText(r) }

// WriteProblem serializes an instance in the text format.
func WriteProblem(w io.Writer, p *Problem) error { return qubo.WriteText(w, p) }

// ReadProblemBinary parses the compact binary format used for large
// instances.
func ReadProblemBinary(r io.Reader) (*Problem, error) { return qubo.ReadBinary(r) }

// WriteProblemBinary serializes the compact binary format.
func WriteProblemBinary(w io.Writer, p *Problem) error { return qubo.WriteBinary(w, p) }

// DefaultOptions returns solver options sized for this host; callers
// must set a stop condition (TargetEnergy, MaxDuration or MaxFlips).
func DefaultOptions() Options { return core.DefaultOptions() }

// PaperOptions returns options reconstructing the paper's hardware
// shape: four simulated RTX 2080 Ti at 100 % occupancy.
func PaperOptions() Options { return core.PaperOptions() }

// Multi-job service types, re-exported from the scheduler package. A
// Solver owns one simulated device fleet and schedules many concurrent
// jobs onto it fair-share; each Submit returns a Job handle.
type (
	// Job is a handle on one submitted solve; all methods are safe for
	// concurrent use.
	Job = serve.Job
	// JobSpec is the per-job request: stop conditions, seed, an
	// optional name, a device cap and the embedded RunSpec's backend.
	// Zero fields inherit the Solver's default Options.
	JobSpec = serve.JobSpec
	// JobStatus is a point-in-time job snapshot, safe to read while the
	// job runs.
	JobStatus = serve.JobStatus
	// JobState is a job's position in the lifecycle
	// queued → running → done | cancelled | failed.
	JobState = serve.JobState
)

// Job lifecycle states, re-exported from the scheduler package.
const (
	JobQueued    = serve.StateQueued
	JobRunning   = serve.StateRunning
	JobDone      = serve.StateDone
	JobCancelled = serve.StateCancelled
	JobFailed    = serve.StateFailed
)

// Service errors, re-exported so callers can errors.Is against them.
var (
	// ErrQueueFull is Submit's backpressure signal: the waiting-job
	// queue is at capacity.
	ErrQueueFull = serve.ErrQueueFull
	// ErrClosed is returned by Submit after Close.
	ErrClosed = serve.ErrClosed
	// ErrNotFinished is returned by Job.Result while the job is live.
	ErrNotFinished = serve.ErrNotFinished
)

// Solver is a long-lived multi-job solver: one simulated device fleet
// (opt.NumGPUs × opt.Device) shared by many concurrent jobs. Jobs run
// at most one per device and split the fleet fair-share — D devices
// across J running jobs is ⌊D/J⌋ each with the earliest arrivals
// holding the remainders — rebalancing live whenever a job arrives or
// finishes. Excess jobs wait in a bounded queue; Submit fails with
// ErrQueueFull when it is full.
//
// For one-shot solves, SolveContext and its wrappers remain the
// simpler entry point (they run a private single-job Solver under the
// hood). Command abs-serve exposes a Solver-equivalent service over
// HTTP.
type Solver struct {
	svc *serve.Service
}

// New starts a Solver whose fleet shape and per-job defaults come from
// opt (start from DefaultOptions or PaperOptions): opt.Device and
// opt.NumGPUs size the fleet, the remaining fields — including any
// stop conditions — are the template each JobSpec overrides. A
// non-nil opt.Telemetry receives the service-plane instruments
// (queue/running gauges, settlement counters, per-job device gauges)
// alongside each run's own; opt.Tracer receives job lifecycle events.
// The Solver runs until Close.
func New(opt Options) (*Solver, error) {
	svc, err := serve.New(serve.Config{
		Device:     opt.Device,
		NumDevices: opt.NumGPUs,
		Defaults:   opt,
		Registry:   opt.Telemetry,
		Tracer:     opt.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &Solver{svc: svc}, nil
}

// Submit validates and enqueues one job. The returned Job is live:
// Job.Wait blocks for the Result, Job.Status snapshots progress,
// Job.Cancel stops it early. Cancelling ctx cancels the job itself —
// queued or running — not just the submission. Submit fails fast with
// ErrQueueFull when the waiting queue is at capacity and ErrClosed
// after Close.
func (s *Solver) Submit(ctx context.Context, p *Problem, spec JobSpec) (*Job, error) {
	return s.svc.Submit(ctx, p, spec)
}

// Job returns the handle for id, if the job is live or still retained.
func (s *Solver) Job(id string) (*Job, bool) { return s.svc.Job(id) }

// Jobs returns all live and retained jobs, newest submission first.
func (s *Solver) Jobs() []*Job { return s.svc.Jobs() }

// Fleet reports the device model and fleet size the Solver runs.
func (s *Solver) Fleet() (DeviceSpec, int) { return s.svc.Fleet() }

// Close stops accepting jobs, cancels everything queued or running and
// waits for all device blocks to stand down. Safe to call more than
// once.
func (s *Solver) Close() error { return s.svc.Close() }

// Solve runs the Adaptive Bulk Search until a stop condition fires. It
// is exactly SolveContext(context.Background(), p, opt).
func Solve(p *Problem, opt Options) (*Result, error) {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext is the canonical one-shot solve: run until a stop
// condition fires or ctx is cancelled. Cancellation is cooperative and
// clean — all simulated blocks are joined — and not an error: the
// partial Result comes back with Cancelled set. Internally the run is
// a single job on a private Solver, so one-shot and service solves
// share one scheduling path.
func SolveContext(ctx context.Context, p *Problem, opt Options) (*Result, error) {
	s, err := New(opt)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	j, err := s.Submit(ctx, p, JobSpec{})
	if err != nil {
		return nil, err
	}
	// Wait on the background context: ctx cancelling the *job* must
	// still deliver the partial Result, exactly like a one-shot run.
	return j.Wait(context.Background())
}

// SolveForContext solves for at most a wall-clock budget, honouring
// ctx for early cancellation.
func SolveForContext(ctx context.Context, p *Problem, budget time.Duration) (*Result, error) {
	opt := core.DefaultOptions()
	opt.MaxDuration = budget
	return SolveContext(ctx, p, opt)
}

// SolveToTargetContext runs until the energy target is reached or the
// budget expires, honouring ctx for early cancellation;
// Result.ReachedTarget distinguishes the outcomes.
func SolveToTargetContext(ctx context.Context, p *Problem, target int64, budget time.Duration) (*Result, error) {
	opt := core.DefaultOptions()
	opt.TargetEnergy = &target
	opt.MaxDuration = budget
	return SolveContext(ctx, p, opt)
}

// ExactSolve enumerates all solutions of a small instance (≤ 30 bits)
// exactly; it exists as a ground-truth oracle.
func ExactSolve(p *Problem) (*Vector, int64, error) { return qubo.ExactSolve(p) }

// SimulatedAnnealingBaseline runs the plain parallel-SA baseline solver
// used in the paper-comparison experiments, for callers who want the
// reference point the framework is measured against.
func SimulatedAnnealingBaseline(p *Problem, budget time.Duration, seed uint64) (*Vector, int64, error) {
	res, err := sa.Solve(p, sa.Options{Seed: seed, MaxDuration: budget})
	if err != nil {
		return nil, 0, err
	}
	return res.Best, res.BestEnergy, nil
}

// Turing2080Ti returns the simulated device model of the paper's GPU.
func Turing2080Ti() DeviceSpec { return gpusim.TuringRTX2080Ti() }

// ScaledDevice returns a miniature device with sms multiprocessors,
// keeping Turing's occupancy rules; use it to trade block population
// against per-block speed on CPU hosts.
func ScaledDevice(sms int) DeviceSpec { return gpusim.ScaledCPU(sms) }

// PresolveResult describes a persistency-based reduction; see
// Presolve.
type PresolveResult = qubo.PresolveResult

// Presolve applies first-order persistency rules to a fixpoint,
// returning a (possibly much smaller) reduced instance plus the fixing
// record needed to Expand reduced solutions back to the original
// variable space.
func Presolve(p *Problem) (*PresolveResult, error) { return qubo.Presolve(p) }

// NewVector returns an all-zero n-bit solution vector.
func NewVector(n int) *Vector { return bitvec.New(n) }

// ParseVector parses a '0'/'1' string into a solution vector.
func ParseVector(s string) (*Vector, error) { return bitvec.FromString(s) }

// MustVector is ParseVector that panics on malformed input; it exists
// for tests and examples with literal bit strings.
func MustVector(s string) *Vector {
	v, err := bitvec.FromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Multi-node cluster types, re-exported from the cluster package. A
// Coordinator owns the authoritative GA pool and federates Workers —
// each a full local solver — over the §3.1 buffer protocol lifted onto
// a Transport (in-process for tests, HTTP/NDJSON between machines).
// Commands abs-serve -coordinator and abs-worker are the packaged
// deployment of the same types.
type (
	// Coordinator is the cluster host: authoritative pool, lease
	// book-keeping, liveness janitor and run lifecycle.
	Coordinator = cluster.Coordinator
	// CoordinatorConfig sizes a Coordinator: stop conditions, lease
	// and worker TTLs, batch size, dedup window, telemetry wiring.
	CoordinatorConfig = cluster.CoordinatorConfig
	// Worker wraps a local solve engine and exchanges targets and
	// solutions with a Coordinator at a bounded cadence.
	Worker = cluster.Worker
	// WorkerConfig wires a Worker: its Transport, device shape,
	// exchange cadence and reconnect backoff.
	WorkerConfig = cluster.WorkerConfig
	// WorkerReport summarizes one finished Worker.Run.
	WorkerReport = cluster.WorkerReport
	// ClusterTransport carries the four cluster RPCs (Register, Lease,
	// Publish, Heartbeat); see NewLocalTransport and NewHTTPTransport.
	ClusterTransport = cluster.Transport
	// ClusterResult is the coordinator-side run outcome returned by
	// Coordinator.Wait and snapshotted by Coordinator.Status.
	ClusterResult = cluster.Result

	// The cluster RPC message types, re-exported so a ClusterTransport
	// is both callable and implementable by name from outside.
	RegisterRequest   = cluster.RegisterRequest
	RegisterResponse  = cluster.RegisterResponse
	LeaseRequest      = cluster.LeaseRequest
	LeaseResponse     = cluster.LeaseResponse
	PublishRequest    = cluster.PublishRequest
	PublishResponse   = cluster.PublishResponse
	HeartbeatRequest  = cluster.HeartbeatRequest
	HeartbeatResponse = cluster.HeartbeatResponse
	// LeasedTarget is one leased target solution in a LeaseResponse.
	LeasedTarget = cluster.Target
	// PublishedSolution is one (solution, energy) pair in a
	// PublishRequest.
	PublishedSolution = cluster.PublishedSolution
)

// Cluster sentinel errors, re-exported for errors.Is.
var (
	// ErrUnknownWorker means the coordinator retired the caller; the
	// recovery is idempotent re-registration (Workers do it
	// automatically).
	ErrUnknownWorker = cluster.ErrUnknownWorker
	// ErrClusterDone is returned by coordinator RPCs once the run has
	// finished.
	ErrClusterDone = cluster.ErrDone
)

// NewCoordinator starts the cluster host for one instance; cfg must
// carry at least one stop condition. Close (or a stop condition)
// finishes the run; Wait blocks for the authoritative result.
func NewCoordinator(p *Problem, cfg CoordinatorConfig) (*Coordinator, error) {
	return cluster.NewCoordinator(p, cfg)
}

// NewWorker builds a cluster worker around cfg.Transport; Run drives
// it until the coordinator finishes the run or ctx is cancelled.
func NewWorker(cfg WorkerConfig) (*Worker, error) { return cluster.NewWorker(cfg) }

// NewLocalTransport connects a Worker to an in-process Coordinator —
// the deterministic single-binary deployment and the test harness.
func NewLocalTransport(c *Coordinator) ClusterTransport { return cluster.NewLocalTransport(c) }

// NewHTTPTransport connects a Worker to a remote Coordinator serving
// NewClusterHandler at baseURL; a nil client gets sane timeouts.
func NewHTTPTransport(baseURL string, client *http.Client) ClusterTransport {
	return cluster.NewHTTPTransport(baseURL, client)
}

// NewClusterHandler exposes a Coordinator's RPCs over HTTP under
// /v1/cluster/, ready to mount on any mux; abs-serve -coordinator is
// the packaged version.
func NewClusterHandler(c *Coordinator) http.Handler { return cluster.NewHTTPHandler(c) }

// Durability and chaos plumbing, re-exported from the store and chaos
// packages. A Store is the snapshot+append-log backend behind crash
// recovery (CoordinatorConfig.Store on the cluster side, abs-serve's
// -store flag on the service side); a ChaosSpec is the seeded
// network-fault schedule the transport hardening is tested under.
type (
	// Store is the pluggable durable-state backend: named snapshots
	// plus an append log, with atomic snapshot replacement. See
	// StoreDir for the file-backed implementation.
	Store = store.Store
	// ChaosSpec schedules seeded network faults — drop, reply loss,
	// duplicate delivery, jittered delay, body truncation and a timed
	// partition. The zero value injects nothing; identical specs
	// replay identical fault sequences. See NewChaosTransport and
	// NewChaosRoundTripper.
	ChaosSpec = chaos.Spec
	// ChaosCounts tallies what a chaos wrapper actually injected.
	ChaosCounts = chaos.Counts
	// ChaosTransport is the fault-injecting ClusterTransport wrapper
	// returned by NewChaosTransport; Counts reports its injections.
	ChaosTransport = chaos.Transport
	// ChaosRoundTripper is the fault-injecting http.RoundTripper
	// wrapper returned by NewChaosRoundTripper.
	ChaosRoundTripper = chaos.RoundTripper
)

// ErrChaosInjected is the error a chaos wrapper returns for injected
// failures — including reply loss, where the request may have executed
// before the reply was discarded (the at-least-once hazard the
// idempotent cluster RPCs exist for).
var ErrChaosInjected = chaos.ErrInjected

// StoreDir opens (creating it if needed) the file-backed Store rooted
// at dir — the durable state directory behind crash-recoverable runs.
// The caller owns the handle and must Close it after the consumer
// (Coordinator or Solver service) is done.
func StoreDir(dir string) (Store, error) { return store.Open(dir) }

// RestoreCoordinator rebuilds a Coordinator from the checkpoint in
// cfg.Store. The boolean reports whether a checkpoint was found; when
// it is false the returned Coordinator is a cold start, exactly as if
// NewCoordinator had been called. Workers from the previous incarnation
// re-register transparently and keep their flip accounting.
func RestoreCoordinator(p *Problem, cfg CoordinatorConfig) (*Coordinator, bool, error) {
	return cluster.RestoreCoordinator(p, cfg)
}

// NewChaosTransport wraps a ClusterTransport with seeded fault
// injection per spec; only the state-changing RPCs (Lease, Publish)
// are eligible for duplicate delivery and reply loss.
func NewChaosTransport(inner ClusterTransport, spec ChaosSpec) *ChaosTransport {
	return chaos.WrapTransport(inner, spec)
}

// NewChaosRoundTripper wraps an http.RoundTripper (nil means
// http.DefaultTransport) with seeded fault injection per spec,
// including response-body truncation with an intact Content-Length.
func NewChaosRoundTripper(inner http.RoundTripper, spec ChaosSpec) *ChaosRoundTripper {
	return chaos.WrapRoundTripper(inner, spec)
}

// Version identifies the library release.
const Version = "1.0.0"

// Describe returns a one-line summary of an instance, for CLI output.
func Describe(p *Problem) string {
	name := p.Name()
	if name == "" {
		name = "unnamed"
	}
	return fmt.Sprintf("%s: %d bits, density %.3f", name, p.N(), p.Density())
}
