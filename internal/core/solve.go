package core

import (
	"context"
	"sync/atomic"
	"time"

	"abs/internal/backend"
	"abs/internal/bitvec"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/search"
)

// Result reports the outcome of a Solve run.
type Result struct {
	// Best is the best solution found and BestEnergy its energy.
	Best       *bitvec.Vector
	BestEnergy int64

	// ReachedTarget reports whether the TargetEnergy stop condition
	// fired (as opposed to a time/flip budget running out).
	ReachedTarget bool

	// Cancelled reports that the run ended because the caller's context
	// was cancelled (SolveContext); the rest of the Result is the
	// partial state at shutdown.
	Cancelled bool

	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration

	// Flips is the cluster-wide number of accepted bit flips; Evaluated
	// is Flips · n, the number of solutions whose energies were
	// computed (each flip evaluates all n neighbours, Eq. 5).
	Flips     uint64
	Evaluated uint64

	// SearchRate is Evaluated / Elapsed in solutions per second — the
	// measured counterpart of the paper's Table 2 metric on this host.
	SearchRate float64

	// ModelledRate is what the cycle-cost model predicts for the same
	// (instance, shape, cluster) on the simulated hardware; for the
	// paper's configuration this reproduces Table 2's column.
	ModelledRate float64

	// Blocks is the number of concurrent search units that ran, and
	// Occupancy the per-device residency of the chosen shape.
	Blocks    int
	Occupancy gpusim.Occupancy

	// Inserted and Rejected count device solutions admitted to /
	// rejected by the host pool (duplicates or too bad).
	Inserted, Rejected uint64

	// Quarantined counts publications the ingest gate refused to admit:
	// wrong-width vectors, unaddressable block indices, or energies the
	// host-side re-evaluation contradicted (unless
	// Options.TrustPublications recovered the paper's trusting
	// protocol).
	Quarantined uint64

	// Recovered counts block respawns performed by the supervisor after
	// a missed heartbeat; Retired counts block slots permanently given
	// up on because their device was marked failed (their target share
	// was redistributed to survivors).
	Recovered uint64
	Retired   int

	// Dropped counts publications the bounded solution buffer
	// overwrote before the host drained them (see
	// Options.SolutionBufferCap).
	Dropped uint64

	// Storage is the engine representation actually used (after auto
	// selection), and EvaluatedPerFlip its per-flip evaluation count
	// (n dense, 1+avg-degree sparse).
	Storage          Storage
	EvaluatedPerFlip float64

	// Backend is the solver backend the run's units executed (after
	// auto resolution, never BackendAuto). Per-unit assignments — which
	// matter for BackendRace, where units split across the portfolio —
	// are in BlockStats.
	Backend Backend

	// BlockStats holds one record per search unit, ordered by global
	// block index.
	BlockStats []BlockStat

	// BackendStats aggregates pool admissions by producing backend —
	// one entry per backend that had at least one publication admitted
	// (the full portfolio under BackendRace, at most one entry
	// otherwise). It is the Result-side mirror of the
	// abs_backend_inserted_total / abs_backend_improvements_total run
	// counters.
	BackendStats map[string]BackendStat
}

// BackendStat is Result.BackendStats' per-backend admission record.
type BackendStat struct {
	// Inserted counts the backend's publications the host admitted to
	// the pool; Improvements counts the subset that strictly improved
	// the run's best energy when they arrived.
	Inserted     uint64
	Improvements uint64
	// Units is the number of search units assigned to the backend: the
	// static g mod 2 split under BackendRace, every unit otherwise.
	Units int
}

// BlockStat is the per-search-unit record returned in Result.BlockStats:
// which window length the block ran, how much it searched, and how much
// of its output the host found good enough (and novel enough) to keep.
// Grouping these by window length shows which rungs of the
// temperature-like ladder (§2.1) actually feed the pool.
type BlockStat struct {
	Device, Block int
	// Backend is the solver backend this unit ran ("straight", "tabu",
	// ...) — under BackendRace the portfolio member assigned to the
	// slot.
	Backend string
	// Window is the block's offset-window length (final value when
	// adaptive rescheduling is on; 0 for backends without a window).
	Window int
	// Flips and Published count the block's work; Inserted counts its
	// publications that the host admitted to the pool. Totals cover all
	// incarnations of the slot when the supervisor respawned it.
	Flips     uint64
	Published uint64
	Inserted  uint64
	// Restarts counts supervisor respawns of this slot.
	Restarts uint64
}

// blockSlot is the shared per-slot instrumentation. Everything is
// atomic because a superseded incarnation (respawned after a stall it
// eventually woke from) may briefly overlap with its replacement.
type blockSlot struct {
	flips     atomic.Uint64
	published atomic.Uint64
	inserted  atomic.Uint64
	restarts  atomic.Uint64
	window    atomic.Int64
	// heartbeat is the UnixNano stamp of the slot's last completed
	// round; the supervisor reads it to detect dead/stalled blocks.
	heartbeat atomic.Int64
}

// blockStats is the per-run shared instrumentation: the aggregate flip
// counter read live by the host (budget enforcement) plus one blockSlot
// per search unit.
type blockStats struct {
	flips atomic.Uint64
	slots []blockSlot
}

// Solve runs the Adaptive Bulk Search on p until a stop condition
// fires, returning the best solution found.
func Solve(p *qubo.Problem, opt Options) (*Result, error) {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext is Solve with cooperative cancellation: when ctx is
// cancelled the run shuts down promptly (all block goroutines joined)
// and returns the partial Result with Cancelled set, not an error.
//
// It is the canonical single-job driver over the reusable Engine: build
// the engine, attach a private fleet of Options.NumGPUs devices, pump
// the host loop until a stop condition or cancellation, finish. A
// scheduler sharing one fleet across many jobs runs the same protocol
// with Attach/Detach calls interleaved (see internal/serve).
func SolveContext(ctx context.Context, p *qubo.Problem, opt Options) (*Result, error) {
	eng, err := NewEngine(p, opt)
	if err != nil {
		return nil, err
	}
	fleet, err := gpusim.NewFleet(eng.opt.Device, eng.maxDevices)
	if err != nil {
		return nil, err
	}
	for i := 0; i < fleet.Size(); i++ {
		if err := eng.Attach(fleet.Device(i)); err != nil {
			eng.Finish(false)
			return nil, err
		}
	}
	cancelled := false
	for {
		eng.Pump(time.Now())
		if eng.ShouldStop(time.Now()) {
			break
		}
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		time.Sleep(eng.opt.PollInterval)
	}
	return eng.Finish(cancelled), nil
}

func hostInsertCounts(h *ga.Host) (uint64, uint64) {
	_, ins, rej := h.Stats()
	return ins, rej
}

// nextDeadline advances the progress deadline by whole intervals from
// the previous deadline, not from the current time, so the tick
// schedule stays phase-locked to the launch instant: slow callbacks or
// a loaded host delay individual ticks but intervals do not stretch.
// When more than one whole interval was missed, the missed ticks are
// skipped (no burst of catch-up lines).
func nextDeadline(prev, now time.Time, every time.Duration) time.Time {
	next := prev.Add(every)
	if next.After(now) {
		return next
	}
	steps := now.Sub(prev)/every + 1
	return prev.Add(steps * every)
}

// deviceBlock is the device-side round protocol of §3.2: the body of
// one CUDA block, run as a goroutine, generic over the solver backend.
// The unit arrives freshly built (its Δ-register engine initialized at
// the zero vector — E(0) = 0, Δ_i = W_ii — so the very first straight
// search already runs at O(1) efficiency, Step 1). Respawned
// incarnations run the same program with a fresh unit; the target
// buffer's version counter makes them pick up the slot's current
// target immediately.
func deviceBlock(bc gpusim.BlockContext, unit backend.Unit, opt Options,
	targets *gpusim.TargetBuffer, solutions *gpusim.SolutionBuffer, stats *blockStats,
	metrics *runMetrics) {

	my := &stats.slots[bc.GlobalBlock]
	defer func() { my.window.Store(int64(unit.Window())) }()

	var targetVersion uint64
	// meter batches the round's flip tallies; the flush below is the
	// only shared-counter traffic the block generates, so the flip
	// loops themselves carry zero telemetry cost.
	var meter search.Meter
	// Searches poll Stopped per flip so a shutdown or supersession takes
	// effect within one flip, not one full round — with thousands of
	// resident blocks the difference dominates shutdown latency.
	stopped := bc.Stopped
	for !bc.Stopped() {
		// Injected faults (testing only; opt.Faults is nil in real
		// runs): a crash loses the goroutine and its engine state; a
		// stall leaves the block resident but inert — it stops flipping
		// and heartbeating, exactly what the supervisor must detect.
		if opt.Faults != nil {
			if kind, fired := opt.Faults.Step(bc.GlobalBlock); fired {
				metrics.fault(bc.GlobalBlock, kind)
				if kind == gpusim.FaultCrash {
					return
				}
				for !bc.Stopped() {
					time.Sleep(time.Millisecond)
				}
				return
			}
		}
		// Respect a cluster-wide flip budget: stop starting new rounds
		// once it is exhausted (the host will shut the run down; the
		// remaining overshoot is at most one in-flight round per block).
		if opt.MaxFlips > 0 && stats.flips.Load() >= opt.MaxFlips {
			return
		}
		// Step 2: read the target solution, if the host has stored a
		// new one; otherwise keep searching from where we are (the
		// iteration chain of Fig. 4 continues unbroken either way).
		if t, v, ok := targets.Load(bc.GlobalBlock, targetVersion); ok {
			targetVersion = v
			// Step 4a: the unit adopts the target T (for flip-based
			// backends, Algorithm 5's straight search from the current
			// solution; flip count = Hamming(C, T)).
			meter.Straight(unit.Retarget(t, stopped))
		}
		// Step 4b: one bulk search phase of the unit's algorithm.
		flips, x, e, ok := unit.Round(stopped)
		meter.Local(flips)

		// Step 5: publish the best solution found this round (the unit
		// resets its round-best itself, Step 3 of the next round, so
		// successive rounds publish fresh solutions rather than one old
		// champion).
		if ok {
			s := gpusim.Solution{X: x, Energy: e, Device: bc.Device, Block: bc.Block}
			if opt.Faults != nil {
				s, _ = opt.Faults.MaybeCorrupt(s)
			}
			solutions.Publish(s)
			my.published.Add(1)
		}

		meter.Round()
		tally := meter.Take()
		my.flips.Add(tally.Flips())
		stats.flips.Add(tally.Flips())
		metrics.roundDone(bc.Device, tally)
		// The heartbeat marks a completed round; crashed and stalled
		// blocks stop stamping, which is what the supervisor watches.
		my.heartbeat.Store(time.Now().UnixNano())
	}
}
