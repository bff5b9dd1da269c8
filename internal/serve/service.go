// Package serve implements the multi-job solver service: one simulated
// device fleet shared by many concurrent QUBO jobs.
//
// A Service owns a gpusim.Fleet and a single scheduler goroutine. Jobs
// arrive through Submit into a bounded queue (ErrQueueFull is the
// backpressure signal); the scheduler promotes them onto devices and
// keeps the allocation fair-share as jobs come and go:
//
//   - at most one running job per device (every running job holds ≥1);
//   - D devices across J running jobs split ⌊D/J⌋ each, with the
//     earliest-arrived jobs holding the D mod J remainders;
//   - a job's JobSpec.MaxDevices caps its share, the surplus flowing to
//     later arrivals;
//   - when a job arrives or finishes, the scheduler reclaims surplus
//     devices (newest allocations first) and grants them to under-share
//     jobs — the core.Engine's dynamic Attach/Detach makes the move
//     safe mid-run.
//
// Each running job is pumped by its own goroutine (the engine's pump
// goroutine); all allocation state changes happen on the scheduler
// goroutine, so the two never share mutable scheduling state. The
// handshake at job end — runner asks the scheduler to release the
// job's devices, detaches them, finishes the engine, then notifies the
// scheduler — keeps a device from being granted to a new job while the
// old job's blocks still run on it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/store"
	"abs/internal/telemetry"
)

var (
	// ErrQueueFull is returned by Submit when the waiting-job queue is
	// at capacity — the service's backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("serve: service closed")
	// ErrNotFinished is returned by Job.Result while the job is live.
	ErrNotFinished = errors.New("serve: job not finished")
)

// Config sizes a Service. The zero value of optional fields picks the
// documented defaults.
type Config struct {
	// Device is the simulated device model every fleet member runs;
	// NumDevices is the fleet size (required, ≥1). When Device is the
	// zero spec, Defaults.Device is used, falling back to
	// gpusim.ScaledCPU(2).
	Device     gpusim.DeviceSpec
	NumDevices int

	// Defaults is the option template jobs start from; JobSpec fields
	// override its stop conditions and seed per job. The zero value
	// means core.DefaultOptions(). Device and NumGPUs are overwritten
	// per job — the fleet shape comes from this Config. Observer fields
	// are passed through to every job: a Progress callback runs on each
	// job's own pump goroutine (make it concurrency-safe), and a
	// Defaults.Telemetry registry receives every job's run-level
	// instruments — counters sum across concurrent jobs while gauges
	// interleave, so set it only for one-job-at-a-time usage and prefer
	// Registry for the always-consistent service plane.
	Defaults core.Options

	// QueueCap bounds how many accepted jobs may wait for a device
	// (running jobs don't count). Zero means 16.
	QueueCap int

	// RetainResults bounds how many settled jobs stay queryable; the
	// oldest-settled are evicted first. Zero means 64.
	RetainResults int

	// MaxJobDuration caps every job's wall-clock budget: jobs asking
	// for more — or for no duration at all, even with other stop
	// conditions — are clamped to it, so no job can sit on its devices
	// forever. Zero means no cap.
	MaxJobDuration time.Duration

	// Registry, when non-nil, receives the service's job-labeled
	// instruments (queue depth, running jobs, per-job device gauges,
	// settlement counters). Per-device run metrics are deliberately not
	// registered per job: the core instruments are keyed by device
	// only, and concurrent jobs sharing a device label would corrupt
	// each other's counters.
	Registry *telemetry.Registry

	// Tracer, when non-nil, receives job lifecycle events
	// (EventJobSubmit/Start/Settle/Reject).
	Tracer *telemetry.Tracer

	// Store, when non-nil, makes the service crash-recoverable: every
	// accepted job's spec (problem included) and terminal result are
	// appended to the "jobs" log. A service built over the same Store
	// restores settled jobs as queryable results (bounded by
	// RetainResults), re-queues jobs that never finished under their
	// original IDs, and resumes the job ID counter past everything seen.
	Store store.Store
}

// Service is a long-lived multi-job solver sharing one device fleet.
type Service struct {
	cfg     Config
	fleet   *gpusim.Fleet
	metrics *serveMetrics
	flight  *telemetry.FlightRecorder

	events    chan event
	schedDone chan struct{}

	closed atomic.Bool
	nextID atomic.Uint64

	// restoredSettled seeds the scheduler's retention list at startup
	// with settled jobs recovered from the Store; written once before
	// the scheduler goroutine starts, read once by it.
	restoredSettled []*Job

	mu   sync.Mutex
	jobs map[string]*Job

	// divMu guards lastMoves: each running job's high-water mark of
	// adaptive-allocator reassignments already rolled into the
	// abs_alloc_reassignments_total counter, so the refresher ticks and
	// the settle-time flush never double-count a move.
	divMu     sync.Mutex
	lastMoves map[string]uint64
}

// Scheduler events. Submit/cancel come from API goroutines; release and
// released form the end-of-job handshake with runner goroutines.
type event interface{ isEvent() }

type evSubmit struct {
	job   *Job
	reply chan error
	// restore marks a job re-queued from the Store at startup: it
	// bypasses the queue cap (it was already accepted once) and is not
	// re-persisted (the startup compaction wrote its spec).
	restore bool
}
type evCancel struct{ job *Job }
type evRelease struct {
	job   *Job
	reply chan []*gpusim.Device
}
type evReleased struct {
	job  *Job
	devs []*gpusim.Device
}
type evClose struct{ reply chan struct{} }

func (evSubmit) isEvent()   {}
func (evCancel) isEvent()   {}
func (evRelease) isEvent()  {}
func (evReleased) isEvent() {}
func (evClose) isEvent()    {}

// New builds the fleet and starts the scheduler. The service runs until
// Close.
func New(cfg Config) (*Service, error) {
	if cfg.NumDevices <= 0 {
		return nil, fmt.Errorf("serve: NumDevices must be positive, got %d", cfg.NumDevices)
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("serve: QueueCap must be non-negative, got %d", cfg.QueueCap)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 16
	}
	if cfg.RetainResults <= 0 {
		cfg.RetainResults = 64
	}
	if cfg.Defaults.LocalSteps == 0 { // zero template
		cfg.Defaults = core.DefaultOptions()
	}
	if cfg.Device.Name == "" {
		cfg.Device = cfg.Defaults.Device
	}
	if cfg.Device.Name == "" {
		cfg.Device = gpusim.ScaledCPU(2)
	}
	fleet, err := gpusim.NewFleet(cfg.Device, cfg.NumDevices)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		fleet:     fleet,
		metrics:   newServeMetrics(cfg.Registry, cfg.Tracer),
		events:    make(chan event),
		schedDone: make(chan struct{}),
		jobs:      make(map[string]*Job),
		lastMoves: make(map[string]uint64),
	}
	var restored *restoredState
	if cfg.Store != nil {
		s.flight = telemetry.NewFlightRecorder("serve", cfg.Registry, cfg.Tracer, cfg.Store)
		restored, err = loadJobs(cfg.Store, cfg.RetainResults)
		if err != nil {
			return nil, err
		}
		s.nextID.Store(restored.maxSeq)
		s.restoredSettled = restored.settled
		for _, j := range restored.settled {
			s.jobs[j.id] = j
		}
		if err := compactJobs(cfg.Store, restored); err != nil {
			return nil, err
		}
	}
	go s.scheduler()
	go s.diversityRefresher()
	if restored != nil {
		for _, q := range restored.requeue {
			s.resubmit(q)
		}
	}
	return s, nil
}

// resubmit re-queues one job recovered from the Store under its
// original identity. Option validation is left to startJob's engine
// construction: a spec that no longer validates settles as failed (with
// the error queryable) instead of vanishing.
func (s *Service) resubmit(q *requeueJob) {
	jctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		id:        q.id,
		spec:      q.spec,
		opt:       s.jobOptions(q.spec),
		problem:   q.problem,
		ctx:       jctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: q.submitted,
	}
	job.startSpans(s.cfg.Tracer)
	reply := make(chan error, 1)
	select {
	case s.events <- evSubmit{job: job, reply: reply, restore: true}:
	case <-s.schedDone:
		cancel()
		return
	}
	if err := <-reply; err != nil {
		cancel()
		return
	}
	go job.watch(s)
}

// Closed reports whether Close has been called — the readiness probe
// for the health endpoints. Safe from any goroutine.
func (s *Service) Closed() bool { return s.closed.Load() }

// DumpFlight writes a flight-recorder dump (recent spans and events
// plus a metrics snapshot) through the service's Store — the incident
// artifact for SIGTERM and panic paths. A no-op without a Store.
func (s *Service) DumpFlight(reason string) error { return s.flight.Dump(reason) }

// Fleet reports the service's fleet shape.
func (s *Service) Fleet() (spec gpusim.DeviceSpec, size int) {
	return s.fleet.Spec(), s.fleet.Size()
}

// BackendUnits aggregates the live per-backend search-unit counts over
// every running job: the adaptive allocator's current split under a
// race backend, every unit on the single resolved backend otherwise.
// Safe from any goroutine (it reads only engine atomics); GET
// /v1/backends serves it.
func (s *Service) BackendUnits() map[string]int {
	out := make(map[string]int)
	for _, j := range s.Jobs() {
		if j.Status().State != StateRunning {
			continue
		}
		eng := j.engine()
		if eng == nil {
			continue
		}
		for name, c := range eng.BackendUnits() {
			out[name] += c
		}
	}
	return out
}

// diversityRefresher keeps the serve-plane DABS instruments
// (abs_alloc_units, abs_alloc_reassignments_total,
// abs_pool_distance_buckets_occupied) live while jobs run. Engine
// reads are lock-free atomics, so a sub-second cadence costs nothing.
func (s *Service) diversityRefresher() {
	if s.metrics == nil {
		return
	}
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.schedDone:
			return
		case <-t.C:
			s.refreshDiversity()
		}
	}
}

// refreshDiversity aggregates the live DABS view over running jobs —
// per-member unit counts summed, occupied distance buckets maxed — and
// advances the reassignment counter by each engine's move delta since
// the last refresh.
func (s *Service) refreshDiversity() {
	units := make(map[string]int)
	buckets := 0
	var delta uint64
	s.divMu.Lock()
	for _, j := range s.Jobs() {
		if j.Status().State != StateRunning {
			continue
		}
		eng := j.engine()
		if eng == nil {
			continue
		}
		for name, c := range eng.BackendUnits() {
			units[name] += c
		}
		if b := eng.OccupiedDistanceBuckets(); b > buckets {
			buckets = b
		}
		moves := eng.AllocMoves()
		if prev := s.lastMoves[j.id]; moves > prev {
			delta += moves - prev
		}
		s.lastMoves[j.id] = moves
	}
	s.divMu.Unlock()
	if len(units) == 0 && delta == 0 && buckets == 0 {
		return // idle service: leave the last run's gauges in place
	}
	s.metrics.allocGauges(units, buckets)
	s.metrics.allocMoved(delta)
}

// settleDiversity flushes a settling job's final reassignment delta —
// moves performed between the last refresher tick and the engine's
// finish — and forgets its high-water mark.
func (s *Service) settleDiversity(j *Job) {
	eng := j.engine()
	if eng == nil {
		return
	}
	s.divMu.Lock()
	moves := eng.AllocMoves()
	prev := s.lastMoves[j.id]
	delete(s.lastMoves, j.id)
	s.divMu.Unlock()
	if moves > prev {
		s.metrics.allocMoved(moves - prev)
	}
}

// Submit validates and enqueues one job. The returned Job is live:
// Wait/Status/Cancel follow it through the lifecycle. Cancelling ctx
// cancels the job itself, queued or running. Submit fails fast with
// ErrQueueFull when the waiting queue is at capacity and ErrClosed
// after Close.
func (s *Service) Submit(ctx context.Context, p *qubo.Problem, spec JobSpec) (*Job, error) {
	if p == nil || p.N() == 0 {
		return nil, fmt.Errorf("serve: nil or empty problem")
	}
	if spec.MaxDevices < 0 {
		return nil, fmt.Errorf("serve: MaxDevices must be non-negative, got %d", spec.MaxDevices)
	}
	if err := spec.validateRun(); err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	opt := s.jobOptions(spec)
	if err := opt.Validate(p.N()); err != nil {
		return nil, err
	}
	jctx, cancel := context.WithCancel(ctx)
	job := &Job{
		id:        fmt.Sprintf("job-%d", s.nextID.Add(1)),
		spec:      spec,
		opt:       opt,
		problem:   p,
		ctx:       jctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: time.Now(),
	}
	job.startSpans(s.cfg.Tracer)
	reply := make(chan error, 1)
	select {
	case s.events <- evSubmit{job: job, reply: reply}:
	case <-s.schedDone:
		cancel()
		return nil, ErrClosed
	}
	if err := <-reply; err != nil {
		cancel()
		return nil, err
	}
	go job.watch(s)
	return job, nil
}

// validateRun checks the job's RunSpec: every set field parses, and
// storage, which is service-wide, is unset. Submit rejects a job that
// fails it, and a restored job that fails it settles as failed.
func (spec JobSpec) validateRun() error {
	if spec.Storage != "" {
		return fmt.Errorf("serve: storage is service-wide (Config.Defaults), not per job")
	}
	return spec.RunSpec.Validate()
}

// jobOptions resolves the effective options for one job: the service
// defaults with the job's set fields on top.
func (s *Service) jobOptions(spec JobSpec) core.Options {
	opt := s.cfg.Defaults
	opt.Device = s.fleet.Spec()
	// The engine is sized for the whole fleet: any device may be
	// attached to any job at any time, so every job needs the full slot
	// range. JobSpec.MaxDevices caps the scheduler's allocation, not
	// the engine capacity.
	opt.NumGPUs = s.fleet.Size()
	if spec.MaxDuration > 0 {
		opt.MaxDuration = spec.MaxDuration
	}
	if spec.MaxFlips > 0 {
		opt.MaxFlips = spec.MaxFlips
	}
	if spec.TargetEnergy != nil {
		opt.TargetEnergy = spec.TargetEnergy
	}
	if spec.Seed != 0 {
		opt.Seed = spec.Seed
	}
	// Every caller passed validateRun first, so Apply cannot fail.
	_ = spec.RunSpec.Apply(&opt)
	if lim := s.cfg.MaxJobDuration; lim > 0 && (opt.MaxDuration == 0 || opt.MaxDuration > lim) {
		opt.MaxDuration = lim
	}
	return opt
}

// Job returns the handle for id, if the job is live or still retained.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all live and retained jobs, newest submission first.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	for i := 0; i < len(out); i++ { // insertion sort on the numeric suffix, descending
		for k := i; k > 0 && jobSeq(out[k].id) > jobSeq(out[k-1].id); k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

func jobSeq(id string) uint64 {
	var n uint64
	fmt.Sscanf(id, "job-%d", &n)
	return n
}

// Close stops accepting jobs, cancels everything queued or running,
// waits for all engines to shut down and stops the scheduler. Safe to
// call more than once.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.schedDone
		return nil
	}
	reply := make(chan struct{})
	s.events <- evClose{reply: reply}
	<-s.schedDone
	return nil
}

// schedState is the scheduler goroutine's private view; nothing here is
// touched from any other goroutine.
type schedState struct {
	queued  []*Job
	running []*Job                    // arrival order — the fair-share priority order
	alloc   map[*Job][]*gpusim.Device // attach order; reclaim pops from the tail
	free    []*gpusim.Device

	releasing  int // jobs between evRelease and evReleased
	settled    []*Job
	closing    bool
	closeReply chan struct{}
}

func (s *Service) scheduler() {
	defer close(s.schedDone)
	st := &schedState{alloc: make(map[*Job][]*gpusim.Device)}
	// Settled jobs recovered from the Store join the retention list
	// (oldest-finished first, already bounded by loadJobs) so the normal
	// eviction path ages them out as new jobs settle.
	st.settled = append(st.settled, s.restoredSettled...)
	s.restoredSettled = nil
	for i := 0; i < s.fleet.Size(); i++ {
		st.free = append(st.free, s.fleet.Device(i))
	}
	s.metrics.fleet(0, 0, s.fleet.Size(), s.fleet.Size())
	for {
		switch ev := (<-s.events).(type) {
		case evSubmit:
			s.handleSubmit(st, ev)
		case evCancel:
			s.handleCancel(st, ev.job)
		case evRelease:
			st.running = removeJob(st.running, ev.job)
			devs := st.alloc[ev.job]
			delete(st.alloc, ev.job)
			st.releasing++
			ev.reply <- devs
		case evReleased:
			st.releasing--
			st.free = append(st.free, ev.devs...)
			s.settleJob(st, ev.job)
			if !st.closing {
				s.rebalance(st)
			}
		case evClose:
			st.closing = true
			st.closeReply = ev.reply
			for _, j := range st.queued {
				s.settleQueuedCancel(st, j)
			}
			st.queued = nil
			for _, j := range st.running {
				j.cancel()
			}
		}
		if st.closing && len(st.running) == 0 && st.releasing == 0 {
			close(st.closeReply)
			return
		}
	}
}

func (s *Service) handleSubmit(st *schedState, ev evSubmit) {
	if st.closing {
		ev.reply <- ErrClosed
		return
	}
	// The queue bounds *waiting* jobs only: whenever fewer than D jobs
	// run, rebalance drains the queue, so a non-empty queue implies a
	// full fleet. Restored jobs were accepted by the previous process,
	// so the cap does not apply to them again.
	if !ev.restore && len(st.queued) >= s.cfg.QueueCap {
		s.metrics.rejected(ev.job)
		ev.reply <- ErrQueueFull
		return
	}
	s.mu.Lock()
	s.jobs[ev.job.id] = ev.job
	s.mu.Unlock()
	st.queued = append(st.queued, ev.job)
	s.metrics.submitted(ev.job)
	if !ev.restore {
		s.persistSpec(ev.job)
	}
	ev.reply <- nil
	s.rebalance(st)
}

func (s *Service) handleCancel(st *schedState, j *Job) {
	for i, q := range st.queued {
		if q == j {
			st.queued = append(st.queued[:i], st.queued[i+1:]...)
			s.settleQueuedCancel(st, j)
			s.rebalance(st)
			return
		}
	}
	// Running jobs observe their own context in the pump loop; settled
	// jobs are past caring. Either way there is nothing to do here.
}

// settleQueuedCancel settles a job that never reached a device: no
// engine exists, so the outcome is synthesized — a cancelled Result
// holding the zero vector (energy 0 by construction), zero work done.
func (s *Service) settleQueuedCancel(st *schedState, j *Job) {
	res := &core.Result{
		Best:      bitvec.New(j.problem.N()),
		Cancelled: true,
	}
	j.settle(StateCancelled, res, nil)
	s.settleJob(st, j)
}

// settleJob does the scheduler-side bookkeeping for a terminal job:
// telemetry and the bounded retention of settled handles.
func (s *Service) settleJob(st *schedState, j *Job) {
	s.settleDiversity(j)
	s.metrics.settled(j, len(st.queued), len(st.running))
	if stt := j.Status(); stt.State == StateFailed {
		// A failed job is an incident: preserve the last spans, events
		// and metrics while they are still in the rings.
		s.flight.Dump("job " + j.id + " failed: " + stt.Error)
	}
	s.persistDone(j)
	st.settled = append(st.settled, j)
	if evict := len(st.settled) - s.cfg.RetainResults; evict > 0 {
		s.mu.Lock()
		for _, old := range st.settled[:evict] {
			delete(s.jobs, old.id)
		}
		s.mu.Unlock()
		st.settled = append(st.settled[:0:0], st.settled[evict:]...)
		s.metrics.evicted(evict)
	}
}

// rebalance is the fair-share pass, run after every arrival and
// departure: promote queued jobs while job slots exist, compute each
// running job's share, reclaim surplus devices and grant them to
// under-share jobs. All Attach/Detach calls for allocation changes
// happen here, on the scheduler goroutine.
func (s *Service) rebalance(st *schedState) {
	D := s.fleet.Size()
	for len(st.queued) > 0 && len(st.running) < D {
		j := st.queued[0]
		st.queued = st.queued[1:]
		s.startJob(st, j)
	}
	J := len(st.running)
	if J == 0 {
		s.metrics.fleet(len(st.queued), 0, len(st.free), s.fleet.Size())
		return
	}

	// Arrival-ordered shares: ⌊D/J⌋ each, the first D mod J jobs one
	// more; MaxDevices caps spill their surplus to later uncapped jobs.
	desired := make(map[*Job]int, J)
	spare := 0
	for i, j := range st.running {
		d := D / J
		if i < D%J {
			d++
		}
		if cap := j.maxDevices(D); d > cap {
			spare += d - cap
			d = cap
		}
		desired[j] = d
	}
	for spare > 0 {
		progressed := false
		for _, j := range st.running {
			if spare == 0 {
				break
			}
			if desired[j] < j.maxDevices(D) {
				desired[j]++
				spare--
				progressed = true
			}
		}
		if !progressed {
			break // every job capped; the leftovers idle in the free pool
		}
	}

	// Reclaim before granting, newest allocations first: the device a
	// job received in the last rebalance is the one with the least
	// accumulated block state worth keeping.
	for _, j := range st.running {
		for len(st.alloc[j]) > desired[j] {
			devs := st.alloc[j]
			dev := devs[len(devs)-1]
			st.alloc[j] = devs[:len(devs)-1]
			j.engine().Detach(dev) // waits for the device's blocks to stand down
			st.free = append(st.free, dev)
			j.devices.Store(int64(len(st.alloc[j])))
			s.metrics.jobDevices(j, len(st.alloc[j]))
		}
	}
	for _, j := range st.running {
		for len(st.alloc[j]) < desired[j] && len(st.free) > 0 {
			dev := st.free[len(st.free)-1]
			st.free = st.free[:len(st.free)-1]
			if err := j.engine().Attach(dev); err != nil {
				// The job is already tearing down (finished engine):
				// leave the device free; the release handshake triggers
				// the next rebalance.
				st.free = append(st.free, dev)
				break
			}
			st.alloc[j] = append(st.alloc[j], dev)
			j.devices.Store(int64(len(st.alloc[j])))
			s.metrics.jobDevices(j, len(st.alloc[j]))
		}
	}
	s.metrics.fleet(len(st.queued), len(st.running), len(st.free), s.fleet.Size())
}

// startJob builds the engine and starts the runner; devices arrive in
// the grant phase of the same rebalance pass.
func (s *Service) startJob(st *schedState, j *Job) {
	// The queue stage ends here; the run span opens before the engine is
	// built so its context reaches the engine's event stream.
	j.queueSpan.End()
	j.runSpan = s.cfg.Tracer.StartSpan("job.run", j.trace)
	j.runSpan.SetNode("serve")
	j.opt.Span = j.runSpan.Context()
	eng, err := core.NewEngine(j.problem, j.opt)
	if err != nil {
		// Validate at Submit makes this near-impossible; settle as
		// failed rather than crash the scheduler.
		j.settle(StateFailed, nil, err)
		s.settleJob(st, j)
		return
	}
	j.setRunning(eng)
	st.running = append(st.running, j)
	st.alloc[j] = nil
	s.metrics.started(j, time.Since(j.submitted))
	go s.run(j)
}

// run is the job's pump goroutine: the same §3.1 host loop as
// core.SolveContext, with the device set managed externally by the
// scheduler. The end-of-job handshake: ask the scheduler to release
// the allocation (so no rebalance grants those devices away mid-
// detach), detach, finish the engine, settle the job, then hand the
// devices back to the free pool.
func (s *Service) run(j *Job) {
	eng := j.engine()
	poll := eng.Options().PollInterval
	cancelled := false
	for {
		eng.Pump(time.Now())
		if eng.ShouldStop(time.Now()) {
			break
		}
		if j.ctx.Err() != nil {
			cancelled = true
			break
		}
		time.Sleep(poll)
	}
	reply := make(chan []*gpusim.Device, 1)
	s.events <- evRelease{job: j, reply: reply}
	devs := <-reply
	for _, dev := range devs {
		eng.Detach(dev)
	}
	res := eng.Finish(cancelled)
	state := StateDone
	if cancelled {
		state = StateCancelled
	}
	j.settle(state, res, nil)
	s.events <- evReleased{job: j, devs: devs}
}

func removeJob(jobs []*Job, j *Job) []*Job {
	for i, x := range jobs {
		if x == j {
			return append(jobs[:i], jobs[i+1:]...)
		}
	}
	return jobs
}
