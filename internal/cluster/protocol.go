// Package cluster federates many ABS processes into one bulk search:
// the §3.1 host/device buffer protocol, lifted over the network.
//
// The paper's protocol is deliberately asynchronous — device blocks
// publish (solution, energy) pairs into a buffer and read fresh
// targets from another, never blocking on the host — which is exactly
// the property that survives a network hop. A Coordinator owns the
// authoritative GA pool and plays the §3.1 host; Workers wrap a full
// local core.Engine (their own pool, devices and supervisor — the
// diversified-multi-start shape of arXiv:1706.00037) and exchange with
// the coordinator in bounded batches:
//
//   - Lease is the networked target buffer (§3.1 Step 4): the
//     coordinator generates target solutions from its pool and leases
//     a batch to the worker, which injects them into its local engine;
//   - Publish is the networked solution buffer (§3.1 Steps 2–3): the
//     worker ships its best local pool entries back; the coordinator
//     dedups them, runs them through the core ingest-validation gate
//     and admits survivors to the authoritative pool;
//   - Heartbeat keeps the worker's leases alive when it has nothing
//     new to publish.
//
// Every lease carries a TTL. A worker that vanishes mid-run simply
// stops heartbeating: its leases expire, the leased targets go back
// into a redistribution queue served to the next Lease call, and the
// search degrades to the surviving workers instead of stalling. A
// worker that loses the coordinator keeps searching locally and
// re-registers (idempotently, under jittered exponential backoff)
// when the coordinator comes back.
//
// Two transports implement the protocol: an in-process Transport for
// deterministic tests and an HTTP/NDJSON transport for real multi-node
// deployments (cmd/abs-worker ↔ abs-serve -coordinator).
package cluster

import (
	"context"
	"errors"

	"abs/internal/core"
	"abs/internal/telemetry"
)

// ErrUnknownWorker is returned by Lease, Publish and Heartbeat when
// the coordinator does not know the calling worker — it was retired
// after missing heartbeats, or the coordinator restarted. The worker's
// recovery is idempotent re-registration with the same ID.
var ErrUnknownWorker = errors.New("cluster: unknown worker (re-register)")

// ErrDone is returned by coordinator RPCs after the run has finished
// and the coordinator is shutting down. Workers treat it like a Done
// response: stop exchanging, finish locally.
var ErrDone = errors.New("cluster: run finished")

// RegisterRequest announces a worker and its simulated-device
// inventory. An empty WorkerID asks the coordinator to assign one;
// re-registering an existing ID is idempotent (the worker's old leases
// are redistributed and its session state reset).
type RegisterRequest struct {
	WorkerID string `json:"worker_id,omitempty"`
	Devices  int    `json:"devices"`
}

// RegisterResponse hands the worker everything it needs to search:
// the problem itself (qubo text format — workers need only the
// coordinator's address, never a shared filesystem), a worker-distinct
// host seed, the lease/heartbeat cadences and the run's target energy.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	Problem  string `json:"problem"`
	Seed     uint64 `json:"seed"`
	// LeaseTTLMillis is how long a lease lives without a heartbeat;
	// HeartbeatMillis is the cadence the coordinator expects (TTL/3).
	LeaseTTLMillis  int64 `json:"lease_ttl_ms"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	// LeaseBatch is the suggested number of targets per Lease call.
	LeaseBatch   int    `json:"lease_batch"`
	TargetEnergy *int64 `json:"target_energy,omitempty"`
	// RunSpec is the coordinator's storage, backend and diversity
	// grant, under the "storage", "backend" and "diversity" keys; an
	// empty field leaves the choice to the worker. A worker's own set
	// fields win over it (WorkerConfig.Run).
	core.RunSpec
	// Trace is the run's root span context as a W3C-traceparent-style
	// value (telemetry.ParseTraceparent). Workers parent their own spans
	// under it, so one stitched trace covers the whole cluster run.
	Trace string `json:"trace,omitempty"`
	Done  bool   `json:"done"`
}

// Target is one leased target solution.
type Target struct {
	// Lease identifies the lease for release and TTL accounting.
	Lease uint64 `json:"lease"`
	// X is the target vector as a 0/1 string (bitvec.FromString).
	X string `json:"x"`
}

// LeaseRequest asks for up to Max fresh targets.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
	// RequestID, when non-empty, makes the call idempotent: a retry
	// carrying the same ID inside the coordinator's replay window gets
	// the original response back instead of a second grant. Workers
	// derive IDs from a per-session nonce so retries after a worker
	// restart never collide with a previous incarnation's IDs.
	RequestID string `json:"request_id,omitempty"`
}

// LeaseResponse carries the granted batch plus the run's live best so
// every exchange doubles as a cross-node best-energy broadcast.
type LeaseResponse struct {
	Targets    []Target `json:"targets"`
	Done       bool     `json:"done"`
	BestEnergy int64    `json:"best_energy"`
	BestKnown  bool     `json:"best_known"`
}

// PublishedSolution is one (solution, energy) pair offered to the
// coordinator's pool — the wire form of gpusim.Solution.
type PublishedSolution struct {
	X      string `json:"x"`
	Energy int64  `json:"energy"`
}

// PublishRequest ships a bounded batch of the worker's best local pool
// entries. Flips is the worker's cumulative flip counter (the
// coordinator accumulates deltas into the cluster-wide count); Release
// lists leases this batch completes.
type PublishRequest struct {
	WorkerID string              `json:"worker_id"`
	Flips    uint64              `json:"flips"`
	Release  []uint64            `json:"release,omitempty"`
	Results  []PublishedSolution `json:"results"`
	// RequestID makes the publish idempotent under at-least-once
	// delivery — see LeaseRequest.RequestID.
	RequestID string `json:"request_id,omitempty"`
	// Spans ships the worker's recently completed spans to the
	// coordinator, which records them into its own tracer — the
	// stitching that makes the cluster's causal timeline readable from
	// one process. Batches are bounded (Tracer.SpansSince) and re-sent
	// until acknowledged; the coordinator dedups by span ID, so a lost
	// reply cannot double-record.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// PublishResponse reports the batch's admission outcome per class.
type PublishResponse struct {
	Accepted    int   `json:"accepted"`
	Duplicate   int   `json:"duplicate"`
	Rejected    int   `json:"rejected"` // pool verdict: duplicate-in-pool or too bad
	Quarantined int   `json:"quarantined"`
	Done        bool  `json:"done"`
	BestEnergy  int64 `json:"best_energy"`
	BestKnown   bool  `json:"best_known"`
}

// HeartbeatRequest keeps the worker and its leases alive between
// publishes.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse mirrors the run's live state.
type HeartbeatResponse struct {
	Done       bool  `json:"done"`
	BestEnergy int64 `json:"best_energy"`
	BestKnown  bool  `json:"best_known"`
}

// Transport is the worker's view of a coordinator. Implementations:
// NewLocalTransport (in-process, deterministic tests) and
// NewHTTPTransport (HTTP/NDJSON, real deployments). All methods are
// safe for concurrent use and honour ctx cancellation.
type Transport interface {
	Register(ctx context.Context, req RegisterRequest) (*RegisterResponse, error)
	Lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error)
	Publish(ctx context.Context, req PublishRequest) (*PublishResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (*HeartbeatResponse, error)
}
