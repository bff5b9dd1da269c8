package cluster

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/ga"
	"abs/internal/qubo"
	"abs/internal/rng"
	"abs/internal/store"
	"abs/internal/telemetry"
)

// CoordinatorConfig tunes the cluster's authoritative host. The zero
// value of every field is usable; at least one stop condition
// (TargetEnergy, MaxDuration, MaxFlips) must be set, exactly as for a
// single-node run.
type CoordinatorConfig struct {
	// GA configures the authoritative pool and target operators. The
	// zero value means ga.DefaultConfig().
	GA ga.Config
	// Seed drives the coordinator's own target stream; each worker is
	// dealt a distinct host seed derived from it, so no two nodes walk
	// identical search trajectories (the multi-start diversification
	// that makes bulk search pay, §4.3).
	Seed uint64

	// Stop conditions — at least one required.
	TargetEnergy *int64
	MaxDuration  time.Duration
	// MaxFlips stops the run once the cluster-wide flip count (summed
	// from worker reports) crosses the budget.
	MaxFlips uint64

	// TrustPublications recovers the paper's pure §3.1 ingest (no
	// host-side energy recheck) — see core.Gate.
	TrustPublications bool

	// Run is the storage and backend granted to workers
	// at registration (RegisterResponse.RunSpec). Unset fields leave
	// the choice to each worker; a set field pins the whole cluster,
	// though a worker's own set field still wins. Validated by
	// NewCoordinator.
	Run core.RunSpec

	// LeaseTTL is how long a granted lease survives without a heartbeat
	// or publish from its worker before its target is redistributed.
	// Zero means 10 s.
	LeaseTTL time.Duration
	// LeaseBatch is the default number of targets granted per Lease
	// call (workers may ask for fewer). Zero means 32.
	LeaseBatch int
	// WorkerTTL is how long a worker may stay silent before it is
	// retired outright. Zero means 2 × LeaseTTL.
	WorkerTTL time.Duration
	// DedupWindow bounds the recent-publication set used to drop
	// identical (solution, energy) pairs republished across exchanges
	// before they reach the gate. Zero means 8192; negative disables.
	DedupWindow int
	// ReplayWindow bounds the request-ID replay cache that makes Lease
	// and Publish idempotent under at-least-once delivery: a retried
	// request whose ID is still in the window gets its original
	// response back instead of a second grant or a double-counted
	// publish. Zero means 4096; negative disables.
	ReplayWindow int

	// Store, when non-nil, makes the coordinator durable: its pool,
	// cluster flip accounting and run status are checkpointed every
	// Checkpoint interval (plus once at Close), and RestoreCoordinator
	// rebuilds a coordinator from the latest checkpoint after a crash.
	// The coordinator does not Close the store; the caller owns it.
	Store store.Store
	// Checkpoint is the snapshot cadence when Store is set. Zero means
	// 2 s.
	Checkpoint time.Duration

	// Telemetry and tracing, both optional.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer
}

func (c CoordinatorConfig) normalize() (CoordinatorConfig, error) {
	if c.GA == (ga.Config{}) {
		c.GA = ga.DefaultConfig()
	}
	if err := c.GA.Validate(); err != nil {
		return c, err
	}
	if c.TargetEnergy == nil && c.MaxDuration == 0 && c.MaxFlips == 0 {
		return c, fmt.Errorf("cluster: no stop condition set (TargetEnergy, MaxDuration or MaxFlips)")
	}
	if err := c.Run.Validate(); err != nil {
		return c, err
	}
	c.Run = c.Run.Over(core.RunSpec{}) // "auto" fields leave the grant
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.LeaseTTL < 0 {
		return c, fmt.Errorf("cluster: LeaseTTL %v must be positive", c.LeaseTTL)
	}
	if c.LeaseBatch == 0 {
		c.LeaseBatch = 32
	}
	if c.LeaseBatch < 0 {
		return c, fmt.Errorf("cluster: LeaseBatch %d must be positive", c.LeaseBatch)
	}
	if c.WorkerTTL == 0 {
		c.WorkerTTL = 2 * c.LeaseTTL
	}
	if c.WorkerTTL < c.LeaseTTL {
		return c, fmt.Errorf("cluster: WorkerTTL %v shorter than LeaseTTL %v", c.WorkerTTL, c.LeaseTTL)
	}
	if c.DedupWindow == 0 {
		c.DedupWindow = 8192
	}
	if c.ReplayWindow == 0 {
		c.ReplayWindow = 4096
	}
	if c.Checkpoint == 0 {
		c.Checkpoint = 2 * time.Second
	}
	if c.Checkpoint < 0 {
		return c, fmt.Errorf("cluster: Checkpoint %v must be positive", c.Checkpoint)
	}
	return c, nil
}

// workerState is the coordinator's book-keeping for one registered
// worker.
type workerState struct {
	id       string
	devices  int
	seed     uint64
	lastSeen time.Time
	// lastFlips is the worker's last reported cumulative flip counter;
	// the coordinator accumulates deltas so worker restarts (counter
	// reset to zero) never subtract from the cluster total.
	lastFlips uint64
	leases    map[uint64]*lease
}

// lease is one outstanding target grant. The coordinator keeps the
// target vector so an expired lease can be re-granted verbatim — the
// §3.1 guarantee that a generated target is eventually searched
// survives the searcher dying.
type lease struct {
	id      uint64
	worker  string
	x       *bitvec.Vector
	expires time.Time
}

// Coordinator is the cluster's authoritative §3.1 host: it owns the
// one true GA pool, deals targets to workers by lease, and admits
// their publications through the core ingest-validation gate. It
// implements Transport, so in-process workers talk to it directly
// (NewLocalTransport) and the HTTP layer is a thin shim.
//
// All RPCs are safe for concurrent use. Internally one mutex guards
// the pool and book-keeping — exchanges are batched (tens per second
// per worker), not per-flip, so contention is structurally absent.
type Coordinator struct {
	p           *qubo.Problem
	problemText string
	cfg         CoordinatorConfig
	gate        *core.Gate
	metrics     *clusterMetrics
	start       time.Time
	deadline    time.Time

	// runSpan is the root of the cluster run's trace; every RPC span
	// (coordinator- and, via the propagated traceparent, worker-side)
	// descends from it. trace caches its context; flight is the
	// incident recorder over cfg.Store (nil without one).
	runSpan *telemetry.ActiveSpan
	trace   telemetry.SpanContext
	flight  *telemetry.FlightRecorder

	// elapsedPrior is run time accumulated by previous incarnations of
	// this coordinator (restored from a checkpoint); Status and the
	// MaxDuration deadline both include it, so a kill+restore cannot
	// extend the wall-clock budget.
	elapsedPrior time.Duration

	mu           sync.Mutex
	host         *ga.Host
	workers      map[string]*workerState
	leases       map[uint64]*lease
	redistribute []*bitvec.Vector
	nextLease    uint64
	nextWorker   int
	flips        uint64
	// flipBase remembers the last cumulative flip counter reported by
	// workers no longer in the workers map (retired, or known only from
	// a checkpoint), so a re-registering worker that never restarted is
	// not double-counted when its counter picks up where it left off.
	flipBase map[string]uint64
	dedup    *dedupSet
	replay   *replayCache
	reached  bool
	closed   bool

	done     chan struct{}
	doneOnce sync.Once

	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
}

// NewCoordinator builds the authoritative host for p and starts the
// lease janitor. Callers must Close it (directly or via Wait+Close).
func NewCoordinator(p *qubo.Problem, cfg CoordinatorConfig) (*Coordinator, error) {
	c, err := newCoordinator(p, cfg)
	if err != nil {
		return nil, err
	}
	c.startJanitor()
	return c, nil
}

// newCoordinator builds a coordinator without starting its janitor, so
// RestoreCoordinator can replay a checkpoint into it first.
func newCoordinator(p *qubo.Problem, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	host, err := ga.NewHost(p.N(), cfg.GA, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	// Serialize the problem once; every RegisterResponse ships the same
	// text, so workers need nothing but the coordinator's address.
	var sb strings.Builder
	if err := qubo.WriteText(&sb, p); err != nil {
		return nil, err
	}
	c := &Coordinator{
		p:           p,
		problemText: sb.String(),
		cfg:         cfg,
		gate:        core.NewGate(p, cfg.TrustPublications),
		metrics:     newClusterMetrics(cfg.Registry, cfg.Tracer),
		start:       time.Now(),
		host:        host,
		workers:     make(map[string]*workerState),
		leases:      make(map[uint64]*lease),
		flipBase:    make(map[string]uint64),
		dedup:       newDedupSet(cfg.DedupWindow),
		replay:      newReplayCache(cfg.ReplayWindow),
		done:        make(chan struct{}),
		janitorStop: make(chan struct{}),
	}
	if cfg.MaxDuration > 0 {
		c.deadline = c.start.Add(cfg.MaxDuration)
	}
	c.runSpan = cfg.Tracer.StartSpan("cluster.run", telemetry.SpanContext{})
	c.runSpan.SetNode("coordinator")
	c.trace = c.runSpan.Context()
	c.metrics.setRun(c.trace)
	if cfg.Store != nil {
		c.flight = telemetry.NewFlightRecorder("coordinator", cfg.Registry, cfg.Tracer, cfg.Store)
	}
	return c, nil
}

// rpcSpan opens one coordinator-side RPC span — parented to the
// caller's span when the transport propagated one (traceparent header,
// or the ctx of an in-process call), to the run span otherwise — and
// returns the finisher that times the call into the per-RPC histogram.
func (c *Coordinator) rpcSpan(ctx context.Context, name string) (*telemetry.ActiveSpan, func(error)) {
	start := time.Now()
	parent, ok := telemetry.SpanFromContext(ctx)
	if !ok {
		parent = c.trace
	}
	sp := c.cfg.Tracer.StartSpan("rpc."+name, parent)
	sp.SetNode("coordinator")
	return sp, func(err error) {
		c.metrics.rpc(name, time.Since(start))
		sp.Fail(err)
		sp.End()
	}
}

// DumpFlight writes a flight-recorder dump — the recent spans and
// events plus a metrics snapshot — through the coordinator's Store.
// abs-serve calls it on SIGTERM and panic so a killed coordinator
// leaves a postmortem artifact next to its last checkpoint. No-op
// without a Store.
func (c *Coordinator) DumpFlight(reason string) error {
	return c.flight.Dump(reason)
}

func (c *Coordinator) startJanitor() {
	c.janitorWG.Add(1)
	go c.janitor()
}

// Problem returns the instance being solved.
func (c *Coordinator) Problem() *qubo.Problem { return c.p }

// Done is closed when a stop condition fires or the coordinator is
// closed.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// janitor owns the clock-driven half of the failure model: lease
// expiry, worker retirement, the wall-clock deadline, and (when a
// Store is configured) the periodic durability checkpoint. Scanning at
// TTL/4 bounds detection latency at a quarter TTL beyond the grace.
func (c *Coordinator) janitor() {
	defer c.janitorWG.Done()
	tick := c.cfg.LeaseTTL / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	var nextCheckpoint time.Time
	if c.cfg.Store != nil {
		nextCheckpoint = time.Now().Add(c.cfg.Checkpoint)
	}
	for {
		select {
		case <-c.janitorStop:
			return
		case now := <-t.C:
			c.mu.Lock()
			if !c.deadline.IsZero() && now.After(c.deadline) {
				c.finishLocked()
			}
			c.sweepLocked(now)
			c.mu.Unlock()
			if c.cfg.Store != nil && !now.Before(nextCheckpoint) {
				nextCheckpoint = now.Add(c.cfg.Checkpoint)
				// Best effort: a failed checkpoint must not stop the
				// run — the previous snapshot stays valid on disk.
				_ = c.Checkpoint()
			}
		}
	}
}

// sweepLocked expires overdue leases and retires silent workers.
func (c *Coordinator) sweepLocked(now time.Time) {
	type expiry struct {
		worker string
		n      int
	}
	var expired []expiry
	for _, w := range c.workers {
		n := 0
		for id, l := range w.leases {
			if now.After(l.expires) {
				c.redistribute = append(c.redistribute, l.x)
				delete(w.leases, id)
				delete(c.leases, id)
				n++
			}
		}
		if n > 0 {
			expired = append(expired, expiry{w.id, n})
		}
	}
	for _, e := range expired {
		c.metrics.expired(e.worker, e.n, len(c.leases), len(c.redistribute))
	}
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.WorkerTTL {
			continue
		}
		c.expireWorkerLeasesLocked(w)
		// Remember the retiree's flip baseline: if the same process
		// re-registers later (a long partition, not a restart), its
		// cumulative counter must not be re-counted from zero.
		c.flipBase[id] = w.lastFlips
		delete(c.workers, id)
		c.metrics.retired(id, len(c.workers))
	}
}

// expireWorkerLeasesLocked pushes all of w's outstanding leases into
// the redistribution queue.
func (c *Coordinator) expireWorkerLeasesLocked(w *workerState) {
	n := 0
	for id, l := range w.leases {
		c.redistribute = append(c.redistribute, l.x)
		delete(c.leases, id)
		n++
	}
	w.leases = make(map[uint64]*lease)
	if n > 0 {
		c.metrics.expired(w.id, n, len(c.leases), len(c.redistribute))
	}
}

// finishLocked latches the done state. Idempotent.
func (c *Coordinator) finishLocked() {
	c.doneOnce.Do(func() { close(c.done) })
}

func (c *Coordinator) isDone() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// bestLocked reads the authoritative pool's best evaluated entry.
func (c *Coordinator) bestLocked() (int64, bool) {
	if best, ok := c.host.Pool().Best(); ok {
		return best.E, true
	}
	return 0, false
}

// touchLocked refreshes a worker's liveness and extends its leases —
// both Publish and Heartbeat count as proof of life for everything the
// worker holds.
func (c *Coordinator) touchLocked(w *workerState, now time.Time) {
	w.lastSeen = now
	exp := now.Add(c.cfg.LeaseTTL)
	for _, l := range w.leases {
		l.expires = exp
	}
}

// Register implements Transport. Re-registering an existing WorkerID
// is idempotent: the worker keeps its identity and seed, its stale
// leases go back into the redistribution queue, and its flip baseline
// is retained — Publish's backwards-counter guard re-baselines if the
// worker process genuinely restarted (counter back at zero), while a
// worker that merely lost connectivity keeps counting from where it
// left off instead of being double-counted.
func (c *Coordinator) Register(ctx context.Context, req RegisterRequest) (resp *RegisterResponse, err error) {
	sp, finish := c.rpcSpan(ctx, "register")
	defer func() { finish(err) }()
	sp.SetAttr("worker", req.WorkerID)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrDone
	}
	now := time.Now()
	devices := req.Devices
	if devices < 1 {
		devices = 1
	}
	w, ok := c.workers[req.WorkerID]
	if ok {
		c.expireWorkerLeasesLocked(w)
		w.devices = devices
		w.lastSeen = now
	} else {
		c.nextWorker++
		id := req.WorkerID
		if id == "" {
			id = fmt.Sprintf("w%d", c.nextWorker)
		}
		// splitmix64-style scramble keeps worker seeds far apart even
		// for consecutive registration indices.
		seed := (c.cfg.Seed + uint64(c.nextWorker)*0x9e3779b97f4a7c15) ^ 0x6a09e667f3bcc909
		w = &workerState{
			id: id, devices: devices, seed: seed,
			// A worker the coordinator has seen before (retired, or
			// known from a restored checkpoint) resumes its flip
			// baseline instead of re-counting from zero.
			lastFlips: c.flipBase[id],
			lastSeen:  now, leases: make(map[uint64]*lease),
		}
		delete(c.flipBase, id)
		c.workers[id] = w
	}
	c.metrics.registered(sp.Context(), w.id, len(c.workers))
	return &RegisterResponse{
		WorkerID:        w.id,
		Problem:         c.problemText,
		Seed:            w.seed,
		LeaseTTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis: (c.cfg.LeaseTTL / 3).Milliseconds(),
		LeaseBatch:      c.cfg.LeaseBatch,
		TargetEnergy:    c.cfg.TargetEnergy,
		RunSpec:         c.cfg.Run,
		Trace:           c.trace.Traceparent(),
		Done:            c.isDone(),
	}, nil
}

// Lease implements Transport: the networked §3.1 Step 4. Expired-lease
// targets are re-granted before fresh ones are generated, so work lost
// to a dead worker is the first work a surviving worker picks up.
func (c *Coordinator) Lease(ctx context.Context, req LeaseRequest) (resp *LeaseResponse, err error) {
	sp, finish := c.rpcSpan(ctx, "lease")
	defer func() { finish(err) }()
	sp.SetAttr("worker", req.WorkerID)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrDone
	}
	// A duplicate delivery (at-least-once transport retry) gets the
	// original grant back: the leases it named already exist, no new
	// targets are generated.
	if cached, ok := c.replay.get(req.RequestID); ok {
		c.metrics.replayHit()
		sp.SetAttr("replay", "hit")
		return cached.(*LeaseResponse), nil
	}
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	now := time.Now()
	c.touchLocked(w, now)
	resp = &LeaseResponse{Done: c.isDone()}
	resp.BestEnergy, resp.BestKnown = c.bestLocked()
	if resp.Done {
		return resp, nil
	}
	max := req.Max
	if max <= 0 || max > c.cfg.LeaseBatch {
		max = c.cfg.LeaseBatch
	}
	exp := now.Add(c.cfg.LeaseTTL)
	for i := 0; i < max; i++ {
		var x *bitvec.Vector
		if n := len(c.redistribute); n > 0 {
			x = c.redistribute[n-1]
			c.redistribute = c.redistribute[:n-1]
		} else {
			x = c.host.NewTarget()
		}
		c.nextLease++
		l := &lease{id: c.nextLease, worker: w.id, x: x, expires: exp}
		c.leases[l.id] = l
		w.leases[l.id] = l
		resp.Targets = append(resp.Targets, Target{Lease: l.id, X: x.String()})
	}
	c.metrics.leased(sp.Context(), w.id, len(resp.Targets), len(c.leases))
	c.metrics.redistribute(len(c.redistribute))
	c.replay.put(req.RequestID, resp)
	return resp, nil
}

// Publish implements Transport: the networked §3.1 Steps 2–3. Each
// result is deduped against the recent-publication window, then vetted
// by the core ingest gate (structural checks, pool prefilter, host-side
// energy recheck unless TrustPublications) before pool admission.
// Publications are still admitted after the run is done — a worker's
// final flush must not lose the best solution found.
func (c *Coordinator) Publish(ctx context.Context, req PublishRequest) (out *PublishResponse, err error) {
	sp, finish := c.rpcSpan(ctx, "publish")
	defer func() { finish(err) }()
	sp.SetAttr("worker", req.WorkerID)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrDone
	}
	// Duplicate delivery: the first delivery already accounted the
	// flips, released the leases and admitted the solutions; replay the
	// response without touching any of that state again. Shipped spans
	// were already recorded by the first delivery, so they are skipped
	// along with everything else.
	if cached, ok := c.replay.get(req.RequestID); ok {
		c.metrics.replayHit()
		sp.SetAttr("replay", "hit")
		return cached.(*PublishResponse), nil
	}
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	now := time.Now()
	c.touchLocked(w, now)

	// Stitch: record the worker's shipped spans into the coordinator's
	// tracer. A retry under a fresh RequestID (lost reply) re-ships the
	// same spans; RecordSpan's span-ID dedup absorbs that.
	for _, s := range req.Spans {
		c.cfg.Tracer.RecordSpan(s)
	}

	// Flip accounting: cumulative counter, delta-summed. A counter that
	// went backwards means the worker restarted; re-baseline.
	if req.Flips >= w.lastFlips {
		delta := req.Flips - w.lastFlips
		c.flips += delta
		c.metrics.flipsDelta(delta)
	}
	w.lastFlips = req.Flips

	released := 0
	for _, id := range req.Release {
		if l, mine := w.leases[id]; mine {
			delete(w.leases, id)
			delete(c.leases, l.id)
			released++
		}
	}
	if released > 0 {
		c.metrics.released(released, len(c.leases))
	}

	var resp PublishResponse
	batchBest, batchBestKnown := int64(0), false
	for _, r := range req.Results {
		x, err := bitvec.FromString(r.X)
		if err != nil {
			x = nil // the gate counts it as structural quarantine
		}
		if x != nil && c.dedup.seen(x, r.Energy) {
			resp.Duplicate++
			continue
		}
		gateStart := time.Now()
		verdict := c.gate.Vet(c.host.Pool(), x, r.Energy)
		c.metrics.gateTimed(time.Since(gateStart))
		switch verdict {
		case core.VerdictAdmit:
			insertStart := time.Now()
			c.host.Insert(x, r.Energy)
			c.metrics.insertTimed(time.Since(insertStart))
			resp.Accepted++
			if !batchBestKnown || r.Energy < batchBest {
				batchBest, batchBestKnown = r.Energy, true
			}
		case core.VerdictPool:
			resp.Rejected++
		default: // structural or energy mismatch
			resp.Quarantined++
		}
	}

	if c.cfg.TargetEnergy != nil {
		if best, ok := c.bestLocked(); ok && best <= *c.cfg.TargetEnergy {
			c.reached = true
			c.finishLocked()
		}
	}
	if c.cfg.MaxFlips > 0 && c.flips >= c.cfg.MaxFlips {
		c.finishLocked()
	}
	resp.Done = c.isDone()
	resp.BestEnergy, resp.BestKnown = c.bestLocked()
	c.metrics.published(sp.Context(), w.id, resp, len(req.Results), batchBest, batchBestKnown)
	c.replay.put(req.RequestID, &resp)
	return &resp, nil
}

// Heartbeat implements Transport: proof of life between publishes.
func (c *Coordinator) Heartbeat(ctx context.Context, req HeartbeatRequest) (resp *HeartbeatResponse, err error) {
	_, finish := c.rpcSpan(ctx, "heartbeat")
	defer func() { finish(err) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrDone
	}
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	c.touchLocked(w, time.Now())
	resp = &HeartbeatResponse{Done: c.isDone()}
	resp.BestEnergy, resp.BestKnown = c.bestLocked()
	return resp, nil
}

// Result is the coordinator's terminal summary.
type Result struct {
	// Best is the authoritative pool's best evaluated solution;
	// BestKnown is false when no worker ever published.
	Best       *bitvec.Vector
	BestEnergy int64
	BestKnown  bool
	// ReachedTarget reports whether TargetEnergy stopped the run.
	ReachedTarget bool
	// Flips is the cluster-wide flip count summed from worker reports.
	Flips uint64
	// Elapsed is the coordinator's lifetime so far.
	Elapsed time.Duration
	// Workers is the number of currently registered workers;
	// Quarantined counts publications the ingest gate refused.
	Workers     int
	Quarantined uint64
}

// Status returns a live summary; safe from any goroutine.
func (c *Coordinator) Status() Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Result{
		ReachedTarget: c.reached,
		Flips:         c.flips,
		Elapsed:       c.elapsedPrior + time.Since(c.start),
		Workers:       len(c.workers),
		Quarantined:   c.gate.Quarantined(),
	}
	if best, ok := c.host.Pool().Best(); ok {
		r.Best = best.X.Clone()
		r.BestEnergy = best.E
		r.BestKnown = true
	}
	return r
}

// Wait blocks until a stop condition fires (or ctx is cancelled) and
// returns the terminal summary. It does not Close the coordinator:
// callers typically linger briefly so workers can flush their final
// publications, then Close.
func (c *Coordinator) Wait(ctx context.Context) (Result, error) {
	select {
	case <-c.done:
		return c.Status(), nil
	case <-ctx.Done():
		return c.Status(), ctx.Err()
	}
}

// Close stops the janitor, takes a final checkpoint when a Store is
// configured, and marks the run done; subsequent RPCs return ErrDone.
// Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.finishLocked()
	c.mu.Unlock()
	close(c.janitorStop)
	c.janitorWG.Wait()
	if c.cfg.Store != nil {
		_ = c.Checkpoint()
	}
	c.runSpan.End()
}

// dedupSet is a bounded FIFO set of recently published (solution,
// energy) pairs. Workers republish their local top-K on every
// exchange; the window keeps those echoes off the gate without
// unbounded memory. Keying on (content hash, energy) means a hash
// collision can only drop a publication whose energy also matches —
// and the pool's own distinctness guard backstops false negatives.
type dedupSet struct {
	cap  int
	set  map[uint64]struct{}
	fifo []uint64
	next int
}

func newDedupSet(capacity int) *dedupSet {
	if capacity <= 0 {
		return nil
	}
	return &dedupSet{
		cap:  capacity,
		set:  make(map[uint64]struct{}, capacity),
		fifo: make([]uint64, 0, capacity),
	}
}

// dedupKey folds one (solution, energy) pair into the window key.
func dedupKey(x *bitvec.Vector, e int64) uint64 {
	return x.Hash() ^ (uint64(e) * 0x9e3779b97f4a7c15)
}

// has reports window membership. A nil receiver (dedup disabled)
// never matches.
func (d *dedupSet) has(key uint64) bool {
	if d == nil {
		return false
	}
	_, ok := d.set[key]
	return ok
}

// add inserts a key, evicting the oldest once the window is full.
func (d *dedupSet) add(key uint64) {
	if d == nil || d.has(key) {
		return
	}
	if len(d.fifo) < d.cap {
		d.fifo = append(d.fifo, key)
	} else {
		delete(d.set, d.fifo[d.next])
		d.fifo[d.next] = key
		d.next = (d.next + 1) % d.cap
	}
	d.set[key] = struct{}{}
}

// seen reports whether (x, e) is in the window, inserting it if not.
func (d *dedupSet) seen(x *bitvec.Vector, e int64) bool {
	if d == nil {
		return false
	}
	key := dedupKey(x, e)
	if d.has(key) {
		return true
	}
	d.add(key)
	return false
}

// replayCache is a bounded FIFO of recently answered request IDs and
// their responses — the coordinator-side half of idempotent Lease and
// Publish. Only successful responses are cached: a request that failed
// (unknown worker, closed coordinator) is safe to re-run. The window
// only needs to outlive a transport's retry horizon, which is seconds;
// the default 4096 entries is hours of traffic at exchange cadence.
type replayCache struct {
	cap  int
	m    map[string]any
	fifo []string
	next int
}

func newReplayCache(capacity int) *replayCache {
	if capacity <= 0 {
		return nil
	}
	return &replayCache{
		cap:  capacity,
		m:    make(map[string]any, capacity),
		fifo: make([]string, 0, capacity),
	}
}

// get returns the cached response for id. A nil receiver (replay
// disabled) and the empty ID (request not marked idempotent) never hit.
func (r *replayCache) get(id string) (any, bool) {
	if r == nil || id == "" {
		return nil, false
	}
	v, ok := r.m[id]
	return v, ok
}

// put caches a successful response, evicting the oldest entry once the
// window is full.
func (r *replayCache) put(id string, resp any) {
	if r == nil || id == "" {
		return
	}
	if _, ok := r.m[id]; ok {
		return
	}
	if len(r.fifo) < r.cap {
		r.fifo = append(r.fifo, id)
	} else {
		delete(r.m, r.fifo[r.next])
		r.fifo[r.next] = id
		r.next = (r.next + 1) % r.cap
	}
	r.m[id] = resp
}
