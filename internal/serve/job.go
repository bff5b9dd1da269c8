package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"abs/internal/core"
	"abs/internal/qubo"
	"abs/internal/telemetry"
)

// JobState is a job's position in the lifecycle
// queued → running → done | cancelled | failed.
type JobState string

const (
	// StateQueued: accepted but not yet allocated any device.
	StateQueued JobState = "queued"
	// StateRunning: the job's engine is live on ≥1 fleet device.
	StateRunning JobState = "running"
	// StateDone: a stop condition fired; the Result is final.
	StateDone JobState = "done"
	// StateCancelled: the job's context was cancelled (Job.Cancel, the
	// Submit context, or a DELETE over HTTP); the Result holds the
	// partial state at shutdown, or a zero-work placeholder when the
	// job never left the queue.
	StateCancelled JobState = "cancelled"
	// StateFailed: the run could not be started or died with an error.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is one of the three end states.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// JobSpec is the per-job request: what to solve for and under which
// budget. Zero fields inherit the service's default options; at least
// one stop condition must be set between the two.
type JobSpec struct {
	// Name is an optional human label carried through status reports
	// and telemetry traces. It need not be unique; the job ID is.
	Name string

	// Stop conditions, overriding the service defaults when set.
	MaxDuration  time.Duration
	MaxFlips     uint64
	TargetEnergy *int64

	// Seed overrides the default host seed when non-zero.
	Seed uint64

	// RunSpec picks the job's solver backend ("straight", "sb", ...)
	// and DABS diversity tuning ("radius=8,floor=0.2", "off", ...).
	// Unset fields inherit the service's default options; bad values
	// are rejected at submit time. Storage is service-wide
	// (Config.Defaults), so a job that sets it is rejected too.
	core.RunSpec

	// MaxDevices caps how many fleet devices the scheduler may ever
	// allocate to this job. Zero means no cap (the whole fleet);
	// values above the fleet size are clamped.
	MaxDevices int
}

// JobStatus is a point-in-time snapshot of a job, safe to read while
// the job runs (progress comes from the engine's atomic counters).
type JobStatus struct {
	ID      string
	Name    string
	State   JobState
	Devices int // fleet devices currently allocated

	Submitted time.Time
	Started   time.Time // zero while queued
	Finished  time.Time // zero until terminal

	// Progress is the live run snapshot (zero while queued; frozen at
	// the final counters once terminal).
	Progress core.Progress

	// Error is the failure message for StateFailed, "" otherwise.
	Error string
}

// Job is a handle on one submitted solve. All methods are safe for
// concurrent use.
type Job struct {
	id      string
	spec    JobSpec
	opt     core.Options
	problem *qubo.Problem

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed once terminal

	// Causal timeline: trace is minted at submission and identifies the
	// job's whole trace; rootSpan covers submit→settle, queueSpan the
	// wait for a device, runSpan the engine's run (its context is handed
	// to the engine via core.Options.Span, so every engine event lands
	// inside it). All are written before the job is published to the
	// scheduler or by the scheduler goroutine; ActiveSpan methods are
	// concurrency-safe and nil-safe.
	trace     telemetry.SpanContext
	rootSpan  *telemetry.ActiveSpan
	queueSpan *telemetry.ActiveSpan
	runSpan   *telemetry.ActiveSpan

	devices atomic.Int64 // scheduler-written allocation size

	mu        sync.Mutex
	state     JobState
	eng       *core.Engine
	res       *core.Result
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID returns the service-assigned job identifier ("job-7").
func (j *Job) ID() string { return j.id }

// Trace returns the job's trace context (the root span), minted at
// submission. Invalid when the service has no tracer.
func (j *Job) Trace() telemetry.SpanContext { return j.trace }

// startSpans opens the job's causal timeline: the root span covering
// submit→settle and the queue child covering the wait for a device.
// Called once before the job is handed to the scheduler.
func (j *Job) startSpans(tr *telemetry.Tracer) {
	j.rootSpan = tr.StartSpan("job", telemetry.SpanContext{})
	j.rootSpan.SetNode("serve")
	j.rootSpan.SetAttr("job", j.id)
	if j.spec.Name != "" {
		j.rootSpan.SetAttr("name", j.spec.Name)
	}
	j.trace = j.rootSpan.Context()
	j.queueSpan = tr.StartSpan("job.queue", j.trace)
	j.queueSpan.SetNode("serve")
}

// Spec returns the spec the job was submitted with.
func (j *Job) Spec() JobSpec { return j.spec }

// Cancel requests cancellation. Queued jobs settle immediately as
// cancelled; running jobs shut down their blocks and settle with the
// partial Result. Cancel returns without waiting; use Wait to observe
// the settled job. Cancelling a terminal job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job settles or ctx is cancelled. Like
// core.SolveContext, a cancelled job is not an error: the partial
// Result comes back with Result.Cancelled set. A failed job returns
// (nil, err).
func (j *Job) Wait(ctx context.Context) (*core.Result, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the settled outcome without blocking; it errors with
// ErrNotFinished while the job is still queued or running.
func (j *Job) Result() (*core.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, ErrNotFinished
	}
	if j.err != nil {
		return nil, j.err
	}
	return j.res, nil
}

// Status returns a point-in-time snapshot of the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.id,
		Name:      j.spec.Name,
		State:     j.state,
		Devices:   int(j.devices.Load()),
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	switch {
	case j.res != nil:
		st.Progress = core.Progress{
			Elapsed:     j.res.Elapsed,
			BestEnergy:  j.res.BestEnergy,
			BestKnown:   true,
			Flips:       j.res.Flips,
			Evaluated:   j.res.Evaluated,
			Dropped:     j.res.Dropped,
			Quarantined: j.res.Quarantined,
		}
	case j.eng != nil:
		st.Progress = j.eng.Snapshot(time.Now())
	}
	return st
}

// maxDevices resolves the spec cap against the fleet size.
func (j *Job) maxDevices(fleetSize int) int {
	if j.spec.MaxDevices <= 0 || j.spec.MaxDevices > fleetSize {
		return fleetSize
	}
	return j.spec.MaxDevices
}

// engine returns the job's engine (nil while queued).
func (j *Job) engine() *core.Engine {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eng
}

// setRunning transitions queued → running with a freshly built engine.
func (j *Job) setRunning(eng *core.Engine) {
	j.mu.Lock()
	j.state = StateRunning
	j.eng = eng
	j.started = time.Now()
	j.mu.Unlock()
}

// settle records a terminal outcome and wakes all waiters. Exactly one
// of res/err is set (a cancelled run settles with its partial res).
func (j *Job) settle(state JobState, res *core.Result, err error) {
	j.mu.Lock()
	j.state = state
	j.res = res
	j.err = err
	j.finished = time.Now()
	j.devices.Store(0)
	j.mu.Unlock()
	// Close out the causal timeline (idempotent; the queue span already
	// ended if the job reached a device). The terminal state and any
	// failure land on the root span before it ends.
	j.queueSpan.End()
	if err != nil {
		j.runSpan.Fail(err)
		j.rootSpan.Fail(err)
	}
	j.rootSpan.SetAttr("state", string(state))
	j.runSpan.End()
	j.rootSpan.End()
	j.cancel() // release the context subtree; watchers exit via done
	close(j.done)
}

// watch forwards context cancellation to the scheduler so queued jobs
// (which have no runner goroutine observing the context) settle
// promptly. It exits as soon as the job settles for any reason.
func (j *Job) watch(s *Service) {
	select {
	case <-j.ctx.Done():
		select {
		case s.events <- evCancel{job: j}:
		case <-j.done:
		case <-s.schedDone:
		}
	case <-j.done:
	}
}
