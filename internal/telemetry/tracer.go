package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// EventKind names one ABS lifecycle event class. The catalogue mirrors
// the host/device protocol of §3: everything that crosses the
// host↔device buffers, plus pool and supervisor state changes.
type EventKind string

const (
	// EventTargetPublish: the host stored a fresh target into a block's
	// slot (§3.1 Step 4). Block is the global slot index.
	EventTargetPublish EventKind = "target_publish"
	// EventSolutionPublish: a device block appended its round-best
	// solution to the solution buffer (§3.2 Step 5).
	EventSolutionPublish EventKind = "solution_publish"
	// EventIngestAccept: the ingest gate admitted a publication and the
	// pool inserted it.
	EventIngestAccept EventKind = "ingest_accept"
	// EventIngestReject: the gate quarantined a publication (Detail
	// holds the reason) or the pool turned it away as duplicate/worse.
	EventIngestReject EventKind = "ingest_reject"
	// EventBlockRespawn: the supervisor superseded a silent block with
	// a fresh incarnation.
	EventBlockRespawn EventKind = "block_respawn"
	// EventDeviceRetire: the supervisor retired a failed device's
	// slots; Block is -1 and Detail counts the slots given up.
	EventDeviceRetire EventKind = "device_retire"
	// EventPoolInsert / EventPoolEvict: the GA pool admitted an entry /
	// displaced its worst to make room.
	EventPoolInsert EventKind = "pool_insert"
	EventPoolEvict  EventKind = "pool_evict"
	// EventSolutionDrop: the bounded solution buffer overwrote a
	// pending publication before the host drained it.
	EventSolutionDrop EventKind = "solution_drop"
	// EventFaultInject: a scheduled fault fired in a block (testing
	// runs only; Detail holds the fault kind).
	EventFaultInject EventKind = "fault_inject"

	// Solver-service job lifecycle (internal/serve). Device and Block
	// are -1; Detail holds the job id, plus the terminal state for
	// job_settle and the rejection reason for job_reject.
	EventJobSubmit EventKind = "job_submit"
	EventJobStart  EventKind = "job_start"
	EventJobSettle EventKind = "job_settle"
	EventJobReject EventKind = "job_reject"

	// Multi-node cluster lifecycle (internal/cluster): the §3.1 buffer
	// protocol lifted over the network. Device and Block are -1; Detail
	// holds the worker id (plus lease counts where noted).
	//
	// EventWorkerRegister: a worker registered (or idempotently
	// re-registered) with the coordinator.
	EventWorkerRegister EventKind = "worker_register"
	// EventLeaseGrant: the coordinator leased a batch of targets to a
	// worker (the networked form of §3.1 Step 4); Detail is
	// "worker-id n=count".
	EventLeaseGrant EventKind = "lease_grant"
	// EventClusterPublish: a worker publication batch arrived at the
	// coordinator (the networked form of §3.1 Steps 2–3); Energy is
	// the batch's best claimed energy.
	EventClusterPublish EventKind = "cluster_publish"
	// EventLeaseExpire: a lease outlived its TTL without a publication
	// and its target went back into the redistribution queue.
	EventLeaseExpire EventKind = "lease_expire"
	// EventWorkerRetire: a worker missed its heartbeat window and was
	// retired; its leases are redistributed to the survivors.
	EventWorkerRetire EventKind = "worker_retire"
	// EventRPCError: a worker-side cluster RPC failed (Detail is
	// "rpc: error"). Chaos-injected drops and partitions surface here,
	// attached to the span of the exchange they broke.
	EventRPCError EventKind = "rpc_error"
)

// Event is one structured trace record. Device and Block are -1 when
// the event has no device-side locus (pool events). Energy is
// meaningful for solution- and pool-class events.
type Event struct {
	// Seq is the 1-based global emission number; gaps in a dumped ring
	// reveal how much wrapped away.
	Seq      uint64    `json:"seq"`
	UnixNano int64     `json:"t"`
	Kind     EventKind `json:"kind"`
	Device   int       `json:"device"`
	Block    int       `json:"block"`
	Energy   int64     `json:"energy,omitempty"`
	Detail   string    `json:"detail,omitempty"`
	// TraceID/SpanID attach the event to its enclosing span, when the
	// emitting site runs inside one (see Span); empty otherwise.
	TraceID string `json:"trace,omitempty"`
	SpanID  string `json:"span,omitempty"`
}

// InSpan returns a copy of e stamped with sc's trace and span IDs; an
// invalid sc returns e unchanged, so call sites stamp unconditionally.
func (e Event) InSpan(sc SpanContext) Event {
	if sc.Valid() {
		e.TraceID, e.SpanID = sc.TraceID, sc.SpanID
	}
	return e
}

// Tracer records Events into a fixed-capacity ring (newest overwrite
// oldest) and optionally streams every event as one JSON line to a
// sink. A nil *Tracer is valid and discards everything, so
// instrumentation sites never need a nil check.
//
// Emission takes one mutex; event sites are per-round and per-ingest,
// not per-flip, so this is off the flip path by construction.
type Tracer struct {
	mu   sync.Mutex
	ring []Event
	seq  uint64 // events ever emitted

	// Span ring: same wrap discipline as the event ring, plus a bounded
	// span-ID dedup window for RecordSpan's at-least-once ingestion.
	spans    []Span
	spanSeq  uint64
	spanSeen map[string]struct{}
	seenFIFO []string
	seenNext int

	sink    *bufio.Writer
	sinkErr error
	enc     *json.Encoder
}

// NewTracer returns a tracer whose ring holds the most recent capacity
// events (minimum 1) and as many spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		ring:  make([]Event, 0, capacity),
		spans: make([]Span, 0, capacity),
	}
}

// SetSink attaches a JSONL stream: every subsequent event is written
// as one JSON object per line. The tracer buffers; call Flush (or
// Close on the owning command) before reading the file. Pass nil to
// detach.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if w == nil {
		t.sink, t.enc = nil, nil
		return
	}
	t.sink = bufio.NewWriter(w)
	t.enc = json.NewEncoder(t.sink)
}

// Emit records one event, stamping its sequence number and time.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	e.UnixNano = time.Now().UnixNano()
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[int((t.seq-1)%uint64(cap(t.ring)))] = e
	}
	if t.enc != nil && t.sinkErr == nil {
		t.sinkErr = t.enc.Encode(e)
	}
	t.mu.Unlock()
}

// Events returns the ring's contents oldest-first. The result is a
// copy; the tracer keeps running.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if len(t.ring) < cap(t.ring) {
		return append(out, t.ring...)
	}
	// Full ring: the oldest entry sits right after the newest.
	start := int(t.seq % uint64(cap(t.ring)))
	out = append(out, t.ring[start:]...)
	return append(out, t.ring[:start]...)
}

// Emitted returns the total number of events ever emitted (including
// those that have wrapped out of the ring).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Flush drains the sink buffer and reports the first error the sink
// ever returned (further writes stop after the first error).
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sink == nil {
		return t.sinkErr
	}
	if t.sinkErr == nil {
		t.sinkErr = t.sink.Flush()
	}
	return t.sinkErr
}
