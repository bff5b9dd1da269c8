package serve

import (
	"time"

	"abs/internal/telemetry"
)

// serveMetrics is the service-level instrument set: job lifecycle
// counters and gauges keyed by job id where per-job resolution matters.
// It deliberately does not register the per-run core instruments for
// each job — those are labeled by device only, and two concurrent jobs
// sharing the "device 0" label would corrupt each other's rate deltas.
// A nil *serveMetrics (no registry and no tracer, or telemetry compiled
// out) is valid and makes every method a no-op.
type serveMetrics struct {
	jobsSubmitted *telemetry.Counter
	jobsRejected  *telemetry.Counter
	jobsEvicted   *telemetry.Counter
	jobsSettled   telemetry.CounterVec // label: terminal state
	jobsQueued    *telemetry.Gauge
	jobsRunning   *telemetry.Gauge
	devicesBusy   *telemetry.Gauge
	devicesFree   *telemetry.Gauge
	jobDevs       telemetry.GaugeVec // label: job id
	persistFails  *telemetry.Counter
	stageSeconds  telemetry.HistogramVec // label: pipeline stage (queue, run)

	// Per-backend pool admissions, rolled up from each job's
	// Result.BackendStats at settle. Backend-labeled counters are safe
	// to sum across concurrent jobs (unlike the device-keyed run
	// instruments), and keeping the run-registry names means one query
	// works against abs-solve's -metrics-addr and abs-serve alike.
	backendInserted     telemetry.CounterVec // label: backend
	backendImprovements telemetry.CounterVec // label: backend

	tracer *telemetry.Tracer
}

func newServeMetrics(reg *telemetry.Registry, tr *telemetry.Tracer) *serveMetrics {
	if !telemetry.Enabled || (reg == nil && tr == nil) {
		return nil
	}
	if reg == nil {
		// Tracer-only configuration: park the instruments in a private
		// registry nobody scrapes so the code below stays uniform.
		reg = telemetry.NewRegistry()
	}
	return &serveMetrics{
		jobsSubmitted: reg.Counter("abs_serve_jobs_submitted_total",
			"jobs accepted into the service"),
		jobsRejected: reg.Counter("abs_serve_jobs_rejected_total",
			"submissions rejected by queue backpressure"),
		jobsEvicted: reg.Counter("abs_serve_jobs_evicted_total",
			"settled jobs evicted from the retention window"),
		jobsSettled: reg.CounterVec("abs_serve_jobs_settled_total",
			"jobs settled, by terminal state", "state"),
		jobsQueued: reg.Gauge("abs_serve_jobs_queued",
			"jobs waiting for a device"),
		jobsRunning: reg.Gauge("abs_serve_jobs_running",
			"jobs currently holding devices"),
		devicesBusy: reg.Gauge("abs_serve_devices_busy",
			"fleet devices allocated to jobs"),
		devicesFree: reg.Gauge("abs_serve_devices_free",
			"fleet devices in the free pool"),
		jobDevs: reg.GaugeVec("abs_serve_job_devices",
			"devices currently allocated to each job", "job"),
		persistFails: reg.Counter("abs_serve_persist_failures_total",
			"job log appends that failed (the job itself is unaffected)"),
		stageSeconds: reg.HistogramVec("abs_serve_stage_seconds",
			"time a job spent in each pipeline stage", "stage",
			telemetry.LogBuckets(1e-4, 4, 12)),
		backendInserted: reg.CounterVec("abs_backend_inserted_total",
			"publications admitted to the GA pool, by the solver backend of the producing unit",
			"backend"),
		backendImprovements: reg.CounterVec("abs_backend_improvements_total",
			"admitted publications that strictly improved their run's best energy, by producing backend",
			"backend"),
		tracer: tr,
	}
}

// stage records one pipeline-stage latency (queue wait, run time).
func (m *serveMetrics) stage(name string, d time.Duration) {
	if m == nil {
		return
	}
	m.stageSeconds.With(name).Observe(d.Seconds())
}

// persisted records the outcome of one job-log append.
func (m *serveMetrics) persisted(err error) {
	if m == nil || err == nil {
		return
	}
	m.persistFails.Inc()
}

// emit stamps every job event with the job's span context, attaching
// the lifecycle catalogue to the job's trace.
func (m *serveMetrics) emit(kind telemetry.EventKind, detail string, sc telemetry.SpanContext) {
	if m != nil {
		m.tracer.Emit(telemetry.Event{Kind: kind, Device: -1, Block: -1, Detail: detail}.InSpan(sc))
	}
}

func (m *serveMetrics) submitted(j *Job) {
	if m == nil {
		return
	}
	m.jobsSubmitted.Inc()
	m.emit(telemetry.EventJobSubmit, j.id, j.trace)
}

func (m *serveMetrics) rejected(j *Job) {
	if m == nil {
		return
	}
	m.jobsRejected.Inc()
	m.emit(telemetry.EventJobReject, j.id+" queue full", j.trace)
}

func (m *serveMetrics) started(j *Job, queued time.Duration) {
	if m == nil {
		return
	}
	m.stage("queue", queued)
	m.emit(telemetry.EventJobStart, j.id, j.trace)
}

func (m *serveMetrics) settled(j *Job, queueDepth, running int) {
	if m == nil {
		return
	}
	st := j.Status()
	if !st.Started.IsZero() && !st.Finished.IsZero() {
		m.stage("run", st.Finished.Sub(st.Started))
	}
	m.jobsSettled.With(string(st.State)).Inc()
	if res, err := j.Result(); err == nil && res != nil {
		for name, bs := range res.BackendStats {
			m.backendInserted.With(name).Add(bs.Inserted)
			m.backendImprovements.With(name).Add(bs.Improvements)
		}
	}
	m.jobsQueued.SetInt(queueDepth)
	m.jobsRunning.SetInt(running)
	m.jobDevs.With(j.id).SetInt(0)
	m.emit(telemetry.EventJobSettle, j.id+" "+string(st.State), j.trace)
}

func (m *serveMetrics) evicted(n int) {
	if m == nil {
		return
	}
	m.jobsEvicted.Add(uint64(n))
}

func (m *serveMetrics) jobDevices(j *Job, n int) {
	if m == nil {
		return
	}
	m.jobDevs.With(j.id).SetInt(n)
}

func (m *serveMetrics) fleet(queued, running, free, total int) {
	if m == nil {
		return
	}
	m.jobsQueued.SetInt(queued)
	m.jobsRunning.SetInt(running)
	m.devicesFree.SetInt(free)
	m.devicesBusy.SetInt(total - free)
}
