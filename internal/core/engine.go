package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abs/internal/backend"
	"abs/internal/bitvec"
	"abs/internal/diversity"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/rng"
)

// Engine is one ABS run decoupled from fleet ownership: the host-side
// state of a solve (GA pool, target/solution buffers, ingest gate,
// supervisor, instrumentation) without a fixed set of devices. Where
// SolveContext owns its cluster for the whole run, an Engine is driven
// from outside — a scheduler attaches and detaches gpusim fleet
// devices while the run is in flight, which is what lets one simulated
// fleet be shared fairly across many concurrent jobs (see
// internal/serve).
//
// Threading contract:
//
//   - exactly one goroutine (the "pump" goroutine) calls Pump,
//     ShouldStop and Finish — it owns the GA pool;
//   - Attach and Detach may be called from any goroutine (a scheduler)
//     concurrently with the pump;
//   - Snapshot and AttachedDevices may be called from any goroutine
//     (status endpoints) — they read only atomics.
//
// The engine is sized at creation for maxDevices = Options.NumGPUs
// devices: every fleet device that may ever attach needs a slot range
// in the target buffer, whether or not it is attached right now. Slots
// of detached devices simply hold stale targets until a device picks
// them up again.
type Engine struct {
	p   *qubo.Problem
	opt Options // normalized
	n   int

	host      *ga.Host
	targets   *gpusim.TargetBuffer
	solutions *gpusim.SolutionBuffer
	stats     *blockStats
	gate      *ingestGate
	metrics   *runMetrics
	sup       *supervisor
	blockFn   gpusim.BlockFunc

	storage          Storage
	backendName      Backend         // resolved, never BackendAuto
	be               backend.Backend // live per-slot attribution via UnitName
	alloc            *diversity.Allocator
	divPolicy        *diversity.Policy
	evaluatedPerFlip float64
	occ              gpusim.Occupancy
	blocksPerDevice  int
	maxDevices       int
	totalSlots       int

	start        time.Time
	deadline     time.Time
	lastCounter  uint64
	nextProgress time.Time
	emitProgress bool
	reachedTrgt  bool
	injectCursor int // round-robin slot cursor for InjectTargets

	// Pump-goroutine best-so-far over admitted publications, used to
	// attribute strict improvements to the backend that produced them,
	// and the per-backend tally surfaced as Result.BackendStats.
	ingestBest      int64
	ingestBestKnown bool
	backendTally    map[string]BackendStat

	// Live snapshot for readers outside the pump goroutine.
	bestE     atomic.Int64
	bestKnown atomic.Bool
	// Occupied-distance-bucket count as of the last progress deadline
	// (pool reads are pump-only; this cache makes the figure available
	// to any goroutine, e.g. the serve-plane gauge refresher).
	bucketsOcc atomic.Int64

	mu       sync.Mutex
	runs     map[int]*gpusim.DeviceRun // device ID → this job's launch on it
	attached int                       // len(runs), kept for atomic-free reads under mu
	devGauge atomic.Int64              // attached device count for Snapshot
	finished bool
	res      *Result
}

// NewEngine prepares a run of the Adaptive Bulk Search on p without
// launching any blocks: options are normalized, the GA pool seeded, the
// target buffer pre-filled for every possible device slot (§3.1 Step 1)
// and the supervisor armed. The engine does no work until a device is
// attached. Options.NumGPUs bounds how many devices may ever attach.
func NewEngine(p *qubo.Problem, opt Options) (*Engine, error) {
	n := p.N()
	opt, err := opt.normalize(n)
	if err != nil {
		return nil, err
	}
	occ, err := opt.Device.Occupancy(n, opt.BitsPerThread)
	if err != nil {
		return nil, err
	}
	blocksPerDevice := occ.ActiveBlocks
	totalSlots := blocksPerDevice * opt.NumGPUs

	// Diversity admission (DABS): a positive radius installs the
	// Hamming-bucket policy on the pool before it is seeded, so random
	// seeds, warm starts, injected cluster targets and device
	// publications all pass through the same rule. Radius 0 (the
	// default) leaves the paper's plain elite pool untouched.
	var divPolicy *diversity.Policy
	if opt.Diversity.Radius > 0 {
		divPolicy = diversity.NewPolicy(opt.Diversity)
		opt.GA.Policy = divPolicy
	}

	hostRNG := rng.New(opt.Seed)
	host, err := ga.NewHost(n, opt.GA, hostRNG)
	if err != nil {
		return nil, err
	}

	// Engine selection: the dense kernel is the paper's; the sparse
	// adjacency engine wins on low-density instances (G-set graphs).
	// The auto threshold lives in qubo (ChooseRep) so every layer —
	// serial engines, kernel blocks, cluster workers — agrees on it.
	storage := opt.Storage
	if storage == StorageAuto {
		if qubo.ChooseRep(p.Density()) == qubo.RepSparse {
			storage = StorageSparse
		} else {
			storage = StorageDense
		}
	}
	var newState func() qubo.Engine
	var evaluatedPerFlip float64
	var adm *Gate
	if storage == StorageSparse {
		sp := qubo.Sparsify(p)
		newState = func() qubo.Engine { return qubo.NewSparseZeroState(sp) }
		evaluatedPerFlip = 1 + sp.AvgDegree()
		adm = newSparseGate(sp, opt.TrustPublications)
	} else {
		newState = func() qubo.Engine { return qubo.NewZeroState(p) }
		evaluatedPerFlip = float64(n)
		adm = NewGate(p, opt.TrustPublications)
	}

	// Backend selection: the registered solver program every unit runs
	// over that state representation. BackendAuto resolves to straight
	// (the paper's algorithm); normalize already rejected unknown
	// names, so New failing here means a factory rejected the config.
	backendName := opt.Backend
	if backendName == BackendAuto {
		backendName = BackendStraight
	}
	be, err := backend.New(string(backendName), backend.Config{
		Problem:          p,
		NewState:         newState,
		Units:            totalSlots,
		Seed:             opt.Seed,
		LocalSteps:       opt.LocalSteps,
		WindowMin:        opt.WindowMin,
		WindowMax:        opt.WindowMax,
		Adaptive:         opt.Adaptive,
		AdaptivePatience: opt.AdaptivePatience,
		AllocFloor:       opt.Diversity.Floor,
		AllocWindow:      opt.Diversity.Window,
		AllocInterval:    opt.Diversity.Interval,
	})
	if err != nil {
		return nil, err
	}
	// Meta-backends that split units across a portfolio expose their
	// allocator; the engine feeds it improvement records from the
	// ingest path and drives its rebalance clock from the pump loop.
	var alloc *diversity.Allocator
	if ab, ok := be.(interface{ Allocator() *diversity.Allocator }); ok {
		alloc = ab.Allocator()
	}

	bufCap := opt.SolutionBufferCap
	if bufCap == 0 {
		bufCap = 4 * totalSlots
		if bufCap < 1024 {
			bufCap = 1024
		}
	}
	targets := gpusim.NewTargetBuffer(totalSlots)
	solutions := gpusim.NewBoundedSolutionBuffer(bufCap)
	stats := &blockStats{slots: make([]blockSlot, totalSlots)}

	// Telemetry, when requested: the runMetrics adapter is installed as
	// the buffers' and pool's observer before anything is shared, so
	// even the §3.1 Step 1 seeding below is on the record.
	metrics := newRunMetrics(opt.Telemetry, opt.Tracer, opt.Span, opt.NumGPUs, blocksPerDevice, time.Now())
	if metrics != nil {
		solutions.SetObserver(metrics)
		targets.SetObserver(metrics)
		host.Pool().SetObserver(metrics)
		if alloc != nil {
			// Publish the starting split so the abs_alloc_units gauges
			// are correct before the first rebalance.
			metrics.allocUnits(alloc.UnitCounts())
		}
	}

	// Warm starts join the pool with unknown energy (the host never
	// evaluates the energy function, §3.1); blocks will visit and
	// evaluate their neighbourhoods.
	for _, ws := range opt.WarmStarts {
		host.Pool().Insert(ws.Clone(), ga.UnknownEnergy)
	}

	// §3.1 Step 1: seed every slot before any device attaches so blocks
	// have work the moment they launch. The first slots get the warm
	// starts verbatim so at least one block walks straight to each.
	for b := 0; b < totalSlots; b++ {
		if b < len(opt.WarmStarts) {
			targets.Store(b, opt.WarmStarts[b].Clone())
			continue
		}
		targets.Store(b, host.NewTarget())
	}

	e := &Engine{
		p:                p,
		opt:              opt,
		n:                n,
		host:             host,
		targets:          targets,
		solutions:        solutions,
		stats:            stats,
		metrics:          metrics,
		storage:          storage,
		backendName:      backendName,
		be:               be,
		alloc:            alloc,
		divPolicy:        divPolicy,
		evaluatedPerFlip: evaluatedPerFlip,
		occ:              occ,
		blocksPerDevice:  blocksPerDevice,
		maxDevices:       opt.NumGPUs,
		totalSlots:       totalSlots,
		backendTally:     make(map[string]BackendStat),
		runs:             make(map[int]*gpusim.DeviceRun),
	}
	// Every launch — first attach or supervisor respawn — gets a fresh
	// unit from the backend, exactly as incarnations used to get a
	// fresh Δ-register engine.
	e.blockFn = func(bc gpusim.BlockContext) {
		deviceBlock(bc, be.NewUnit(bc.GlobalBlock), opt, targets, solutions, stats, metrics)
	}
	e.gate = &ingestGate{
		adm:          adm,
		activeBlocks: blocksPerDevice,
		totalBlocks:  totalSlots,
		metrics:      metrics,
	}

	e.start = time.Now()
	if opt.MaxDuration > 0 {
		e.deadline = e.start.Add(opt.MaxDuration)
	}
	// All heartbeats start "now" so a slow-to-attach device is not
	// declared dead before its first round (Attach re-stamps its slots
	// again at attach time).
	for i := range stats.slots {
		stats.slots[i].heartbeat.Store(e.start.UnixNano())
	}
	if !opt.DisableSupervisor {
		e.sup = newSupervisor(e, stats, targets, host, opt.Faults, e.blockFn,
			opt.SupervisorGrace, blocksPerDevice, metrics)
	}
	// The progress ticker is anchored to the engine start: each deadline
	// is the previous deadline plus the interval, so callback work and
	// host load delay a tick but never stretch the schedule.
	e.emitProgress = opt.Progress != nil || opt.ProgressWriter != nil || metrics != nil
	e.nextProgress = e.start.Add(opt.ProgressEvery)
	return e, nil
}

// Options returns the engine's normalized options.
func (e *Engine) Options() Options { return e.opt }

// Storage returns the representation the engine resolved for this
// instance (never StorageAuto): what every block — including
// supervisor respawns, which reuse the same state factory — runs on.
func (e *Engine) Storage() Storage { return e.storage }

// Backend returns the solver backend the engine resolved (never
// BackendAuto): the program every unit — including supervisor
// respawns, which get fresh units from the same backend — runs.
func (e *Engine) Backend() Backend { return e.backendName }

// ingestRecord updates the per-backend admission counters for one
// admitted publication from slot. Pump goroutine only.
func (e *Engine) ingestRecord(slot int, energy int64) {
	e.stats.slots[slot].inserted.Add(1)
	improved := !e.ingestBestKnown || energy < e.ingestBest
	if improved {
		e.ingestBest, e.ingestBestKnown = energy, true
	}
	name := e.be.UnitName(slot)
	t := e.backendTally[name]
	t.Inserted++
	if improved {
		t.Improvements++
	}
	e.backendTally[name] = t
	e.metrics.backendIngest(name, improved)
	if e.alloc != nil {
		// The adaptive allocator's rate signal: the same admission
		// stream the abs_backend_* counters measure.
		e.alloc.Record(name, improved, time.Now())
	}
}

// BackendUnits returns the live per-backend unit counts: the
// allocator's current split under a portfolio meta-backend, or every
// unit on the single resolved backend otherwise. Safe from any
// goroutine (GET /v1/backends reads it from running jobs).
func (e *Engine) BackendUnits() map[string]int {
	if e.alloc != nil {
		return e.alloc.UnitCounts()
	}
	return map[string]int{string(e.backendName): e.totalSlots}
}

// AllocMoves returns the total unit reassignments the adaptive
// allocator has performed so far (0 without one). Safe from any
// goroutine.
func (e *Engine) AllocMoves() uint64 {
	if e.alloc == nil {
		return 0
	}
	return e.alloc.Moves()
}

// OccupiedDistanceBuckets returns how many Hamming-distance buckets of
// the GA pool held at least one entry as of the last progress deadline
// (0 without the diversity admission policy). Safe from any goroutine.
func (e *Engine) OccupiedDistanceBuckets() int { return int(e.bucketsOcc.Load()) }

// Occupancy returns the per-device occupancy of the chosen shape.
func (e *Engine) Occupancy() gpusim.Occupancy { return e.occ }

// BlocksPerDevice returns the resident block count per attached device.
func (e *Engine) BlocksPerDevice() int { return e.blocksPerDevice }

// MaxDevices returns the engine's device capacity (Options.NumGPUs).
func (e *Engine) MaxDevices() int { return e.maxDevices }

// AttachedDevices returns the number of currently attached devices.
func (e *Engine) AttachedDevices() int { return int(e.devGauge.Load()) }

// Attach launches this run's block program on dev: the device's slot
// range comes alive and starts feeding the solution buffer. It fails
// when dev's ID is outside the engine's capacity, the device is already
// attached here, or the run has finished. Safe to call concurrently
// with the pump goroutine.
func (e *Engine) Attach(dev *gpusim.Device) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished {
		return fmt.Errorf("core: attach to a finished engine")
	}
	if dev.ID < 0 || dev.ID >= e.maxDevices {
		return fmt.Errorf("core: device %d outside engine capacity %d", dev.ID, e.maxDevices)
	}
	if _, ok := e.runs[dev.ID]; ok {
		return fmt.Errorf("core: device %d already attached", dev.ID)
	}
	// Re-baseline the device's heartbeats: its slots may have been
	// detached (or never attached) for much longer than the supervisor
	// grace, and must not be respawned the moment they come alive.
	base := dev.ID * e.blocksPerDevice
	now := time.Now().UnixNano()
	for b := 0; b < e.blocksPerDevice; b++ {
		e.stats.slots[base+b].heartbeat.Store(now)
	}
	run, err := dev.Launch(e.blocksPerDevice, base, e.blockFn)
	if err != nil {
		return err
	}
	e.runs[dev.ID] = run
	e.attached++
	e.devGauge.Store(int64(e.attached))
	return nil
}

// Detach stops this run's blocks on dev and waits for them to return,
// freeing the device for another job. The device's slot range goes
// quiet (its targets stay in place for a future re-attach). It reports
// false when dev is not attached. Safe to call concurrently with the
// pump goroutine.
func (e *Engine) Detach(dev *gpusim.Device) bool {
	e.mu.Lock()
	run, ok := e.runs[dev.ID]
	if ok {
		delete(e.runs, dev.ID)
		e.attached--
		e.devGauge.Store(int64(e.attached))
	}
	e.mu.Unlock()
	if !ok {
		return false
	}
	run.Stop() // outside the lock: waits for the device's block goroutines
	return true
}

// Respawn supersedes the incarnation of global slot g with a fresh one,
// reporting false when g's device is not currently attached (the
// supervisor keeps probing detached slots; that is harmless). fn is the
// block program, as in gpusim.DeviceRun.Respawn.
func (e *Engine) Respawn(g int, fn gpusim.BlockFunc) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.finished || g < 0 || g >= e.totalSlots {
		return false
	}
	run, ok := e.runs[g/e.blocksPerDevice]
	if !ok {
		return false
	}
	return run.Respawn(g%e.blocksPerDevice, fn)
}

// Halt tells the incarnation of global slot g to stop without
// replacement (supervisor device retirement). A no-op for slots of
// detached devices.
func (e *Engine) Halt(g int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g < 0 || g >= e.totalSlots {
		return
	}
	if run, ok := e.runs[g/e.blocksPerDevice]; ok {
		run.Halt(g % e.blocksPerDevice)
	}
}

// Pump runs one host-loop iteration (§3.1 Steps 2–4): emit due
// progress, drain and ingest device publications, hand fresh targets to
// publishing blocks, refresh the live best-energy snapshot and let the
// supervisor scan heartbeats. The driver calls it in a loop with
// Options.PollInterval sleeps; see SolveContext for the canonical shape.
func (e *Engine) Pump(now time.Time) {
	if !now.Before(e.nextProgress) {
		e.nextProgress = nextDeadline(e.nextProgress, now, e.opt.ProgressEvery)
		if e.divPolicy != nil {
			// Refresh the bucket figure even when no run metrics are
			// installed: OccupiedDistanceBuckets readers (the serve
			// plane) rely on this cache.
			occ := e.divPolicy.OccupiedBuckets(e.host.Pool())
			e.bucketsOcc.Store(int64(occ))
			e.metrics.poolBuckets(occ)
		}
		if e.emitProgress {
			pr := e.progressLocked(now)
			e.metrics.progressTick(now, pr, e.host.Pool().Len())
			if e.opt.ProgressWriter != nil {
				fmt.Fprintln(e.opt.ProgressWriter, pr)
			}
			if e.opt.Progress != nil {
				e.opt.Progress(pr)
			}
		}
	}
	// Step 2: poll the global counter without draining.
	if c := e.solutions.Counter(); c != e.lastCounter {
		e.lastCounter = c
		// Step 3: run arrivals through the ingest gate and into the
		// pool; Step 4: one fresh target per attributable arrival,
		// stored back into the arriving block's slot.
		ingestStart := time.Now()
		batch := e.solutions.Drain()
		for _, s := range batch {
			slot, inserted, retarget := e.gate.ingest(e.host, s)
			if inserted {
				e.ingestRecord(slot, s.Energy)
			}
			if retarget {
				e.targets.Store(slot, e.host.NewTarget())
			}
		}
		if len(batch) > 0 {
			e.metrics.ingestBatch(time.Since(ingestStart))
		}
	}
	if best, ok := e.host.Pool().Best(); ok {
		e.bestE.Store(best.E)
		e.bestKnown.Store(true)
	}
	// DABS allocator tick: when the rebalance interval has elapsed,
	// move units toward the members currently paying off and surface
	// every move as a trace event; the abs_alloc_units gauges follow
	// the new split.
	if e.alloc != nil {
		if moves := e.alloc.MaybeRebalance(now); len(moves) > 0 {
			for _, mv := range moves {
				e.metrics.allocReassign(mv)
			}
			e.metrics.allocUnits(e.alloc.UnitCounts())
		}
	}
	if e.sup != nil {
		e.sup.scan(now)
	}
}

// progressLocked builds the pump-goroutine progress snapshot (it reads
// the pool, which only the pump goroutine may touch).
func (e *Engine) progressLocked(now time.Time) Progress {
	pr := Progress{
		Elapsed:     now.Sub(e.start),
		Flips:       e.stats.flips.Load(),
		Dropped:     e.solutions.Dropped(),
		Quarantined: e.gate.quarantined(),
	}
	pr.Evaluated = uint64(float64(pr.Flips) * e.evaluatedPerFlip)
	if best, ok := e.host.Pool().Best(); ok {
		pr.BestEnergy, pr.BestKnown = best.E, true
	}
	return pr
}

// Snapshot returns a live progress snapshot safe to read from any
// goroutine (status endpoints, event streams): it touches only atomics,
// never the GA pool.
func (e *Engine) Snapshot(now time.Time) Progress {
	pr := Progress{
		Elapsed:     now.Sub(e.start),
		Flips:       e.stats.flips.Load(),
		Dropped:     e.solutions.Dropped(),
		Quarantined: e.gate.quarantined(),
	}
	pr.Evaluated = uint64(float64(pr.Flips) * e.evaluatedPerFlip)
	if e.bestKnown.Load() {
		pr.BestEnergy, pr.BestKnown = e.bestE.Load(), true
	}
	return pr
}

// ShouldStop reports whether a stop condition has fired: target energy
// reached, wall-clock deadline passed, or flip budget exhausted. Pump
// goroutine only.
func (e *Engine) ShouldStop(now time.Time) bool {
	if e.opt.TargetEnergy != nil {
		if best, ok := e.host.Pool().Best(); ok && best.E <= *e.opt.TargetEnergy {
			e.reachedTrgt = true
			return true
		}
	}
	if !e.deadline.IsZero() && now.After(e.deadline) {
		return true
	}
	if e.opt.MaxFlips > 0 && e.stats.flips.Load() >= e.opt.MaxFlips {
		return true
	}
	return false
}

// Finish shuts the run down — detaches every remaining device, drains
// the last publications and assembles the Result. cancelled marks a run
// ended by caller cancellation rather than a stop condition. Finish is
// idempotent: later calls return the same Result. Pump goroutine only.
func (e *Engine) Finish(cancelled bool) *Result {
	e.mu.Lock()
	if e.finished {
		res := e.res
		e.mu.Unlock()
		return res
	}
	e.finished = true
	runs := e.runs
	e.runs = make(map[int]*gpusim.DeviceRun)
	e.attached = 0
	e.devGauge.Store(0)
	e.mu.Unlock()
	for _, r := range runs {
		r.Stop()
	}

	// Final drain: blocks publish once more on shutdown; keep the
	// gating and per-block attribution consistent with the live path
	// (minus retargeting, which is pointless now).
	for _, s := range e.solutions.Drain() {
		slot, inserted, _ := e.gate.ingest(e.host, s)
		if inserted {
			e.ingestRecord(slot, s.Energy)
		}
	}

	res := &Result{
		Blocks:           e.totalSlots,
		Occupancy:        e.occ,
		Storage:          e.storage,
		Backend:          e.backendName,
		EvaluatedPerFlip: e.evaluatedPerFlip,
		Cancelled:        cancelled,
		ReachedTarget:    e.reachedTrgt,
	}
	res.Elapsed = time.Since(e.start)
	res.Flips = e.stats.flips.Load()
	res.Evaluated = uint64(float64(res.Flips) * e.evaluatedPerFlip)
	// Final telemetry tick: post-run scrapes and report writers see
	// gauges consistent with the Result.
	if e.metrics != nil {
		final := Progress{
			Elapsed:     res.Elapsed,
			Flips:       res.Flips,
			Evaluated:   res.Evaluated,
			Dropped:     e.solutions.Dropped(),
			Quarantined: e.gate.quarantined(),
		}
		if best, ok := e.host.Pool().Best(); ok {
			final.BestEnergy, final.BestKnown = best.E, true
		}
		e.metrics.progressTick(time.Now(), final, e.host.Pool().Len())
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.SearchRate = float64(res.Evaluated) / secs
	}
	res.ModelledRate = gpusim.DefaultCostModel.SearchRate(e.opt.Device, e.n, e.opt.BitsPerThread, e.opt.NumGPUs)
	if best, ok := e.host.Pool().Best(); ok {
		res.Best = best.X.Clone()
		res.BestEnergy = best.E
	} else {
		// No device ever published (budget too small): fall back to the
		// zero vector, whose energy is 0 by construction.
		res.Best = bitvec.New(e.n)
		res.BestEnergy = 0
	}
	res.Inserted, res.Rejected = hostInsertCounts(e.host)
	res.Quarantined = e.gate.quarantined()
	res.Dropped = e.solutions.Dropped()
	if e.sup != nil {
		res.Recovered = e.sup.recovered
		res.Retired = e.sup.numRetired
	}
	res.BackendStats = make(map[string]BackendStat, len(e.backendTally))
	for name, t := range e.backendTally {
		res.BackendStats[name] = t
	}
	// Final unit split: under the adaptive allocator this is where the
	// controller left the fleet; entries are created even for members
	// that never had a publication admitted, so the split is always
	// visible.
	for name, units := range e.BackendUnits() {
		t := res.BackendStats[name]
		t.Units = units
		res.BackendStats[name] = t
	}
	res.BlockStats = make([]BlockStat, e.totalSlots)
	for g := range res.BlockStats {
		slot := &e.stats.slots[g]
		res.BlockStats[g] = BlockStat{
			Device:    g / e.blocksPerDevice,
			Block:     g % e.blocksPerDevice,
			Backend:   e.be.UnitName(g),
			Window:    int(slot.window.Load()),
			Flips:     slot.flips.Load(),
			Published: slot.published.Load(),
			Inserted:  slot.inserted.Load(),
			Restarts:  slot.restarts.Load(),
		}
	}
	e.mu.Lock()
	e.res = res
	e.mu.Unlock()
	return res
}

// InjectTargets feeds externally supplied target solutions into the
// run: each vector joins the GA pool with unknown energy (the host
// never evaluates the energy function, §3.1 — blocks will visit and
// evaluate its neighbourhood) and is stored into a block slot
// round-robin, superseding whatever target sat there. This is the
// worker-side half of the cluster lease protocol: targets leased from
// a coordinator's authoritative pool enter the local search exactly
// like §3.1 Step 4 targets. Pump goroutine only (it writes the pool).
// The engine takes ownership of the vectors.
func (e *Engine) InjectTargets(xs []*bitvec.Vector) {
	for _, x := range xs {
		if x == nil || x.Len() != e.n {
			continue
		}
		e.host.Pool().Insert(x.Clone(), ga.UnknownEnergy)
		e.targets.Store(e.injectCursor, x)
		e.injectCursor = (e.injectCursor + 1) % e.totalSlots
	}
}

// PoolTopK returns clones of the best k evaluated pool entries, best
// first. The cluster worker publishes these to the coordinator
// (bounded batching: k entries per exchange, not the whole pool).
// Pump goroutine only (it reads the pool).
func (e *Engine) PoolTopK(k int) []ga.Entry {
	pool := e.host.Pool()
	out := make([]ga.Entry, 0, k)
	for i := 0; i < pool.Len() && len(out) < k; i++ {
		ent := pool.At(i)
		if !ent.Known() {
			break // unknown-energy entries sort last; nothing evaluated beyond here
		}
		out = append(out, ga.Entry{X: ent.X.Clone(), E: ent.E})
	}
	return out
}
