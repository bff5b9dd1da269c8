package core

import (
	"sync/atomic"

	"abs/internal/bitvec"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
)

// Verdict classifies one publication offered to a Gate.
type Verdict int

const (
	// VerdictAdmit: the publication passed every check and should be
	// inserted into the pool.
	VerdictAdmit Verdict = iota
	// VerdictStructural: the payload fails the structural invariants
	// (vector missing or of the wrong width, sentinel energy claimed).
	// Counted as quarantined.
	VerdictStructural
	// VerdictPool: the pool would reject the entry anyway (duplicate,
	// or no better than a full pool's worst); validating it would only
	// starve the drain loop. Not quarantined.
	VerdictPool
	// VerdictEnergy: host-side re-evaluation contradicted the claimed
	// energy. Counted as quarantined.
	VerdictEnergy
)

// Gate is the reusable admission half of the ingest-validation layer:
// the checks that protect a GA pool from hostile or corrupted
// publications, independent of how the publication arrived (device
// block in-process, or a cluster worker over the network). The paper's
// host trusts devices unconditionally (§3.1: the host never computes
// the energy function); a production host cannot, since one corrupted
// worker would poison every future crossover. Unless trust is set, the
// gate re-evaluates each claimed energy host-side, exactly — but only
// for publications the pool would actually admit, so the recheck is
// never paid for entries that are duplicates or too bad to matter.
// The recheck reads one weight row per bit it has to account for
// (qubo.Problem.EnergyFrom): the set bits of the vector when checked
// from zero, as Vet does, or only the bits that differ from the
// publishing slot's last verified vector, as the engine's per-slot
// gate does. That re-evaluation is the one deliberate deviation from
// §3.1; see DESIGN.md "Fault model & substitutions".
//
// A Gate is owned by whoever owns its pool: Vet is not safe for
// concurrent use.
type Gate struct {
	// energyFrom is the exact E(x) from a verified reference (y, E_y),
	// a nil y meaning the zero vector: Problem.EnergyFrom, or
	// Sparse.EnergyFrom when the instance already has an adjacency view.
	energyFrom func(x, y *bitvec.Vector, ey int64) int64
	n          int
	trust      bool
	// quarantined is atomic so live status readers (Engine.Snapshot,
	// the serve job endpoints, the cluster status plane) can observe it
	// while the owning goroutine keeps ingesting.
	quarantined atomic.Uint64
}

// NewGate returns a gate for publications against p. trust recovers
// the paper's pure §3.1 protocol (no host-side energy recheck).
func NewGate(p *qubo.Problem, trust bool) *Gate {
	c := make([]int16, p.N()) // EnergyFrom's coefficient scratch
	return &Gate{
		energyFrom: func(x, y *bitvec.Vector, ey int64) int64 { return p.EnergyFrom(x, y, ey, c) },
		n:          p.N(),
		trust:      trust,
	}
}

// newSparseGate is NewGate for an engine on sparse storage: the
// recheck walks the CSR rows the blocks already search.
func newSparseGate(sp *qubo.Sparse, trust bool) *Gate {
	return &Gate{energyFrom: sp.EnergyFrom, n: sp.N(), trust: trust}
}

// Quarantined returns how many publications the gate has refused for
// structural or energy reasons. Safe from any goroutine.
func (g *Gate) Quarantined() uint64 { return g.quarantined.Load() }

// Vet classifies one publication against the pool without inserting
// it, bumping the quarantine counter for structural and energy
// verdicts. The energy recheck runs from zero. The pool is read
// (WouldAdmit) but not written; the caller must hold whatever
// ownership the pool's single-owner contract demands.
func (g *Gate) Vet(pool *ga.Pool, x *bitvec.Vector, e int64) Verdict {
	v, _ := g.vet(pool, x, e, nil)
	return v
}

// reference is one slot's last verified publication: a clone of a
// vector whose claimed energy an exact recheck confirmed, and that
// energy. It is a fact about W, not about the block that published
// it, so it outlives respawns.
type reference struct {
	x *bitvec.Vector // nil until the slot's first verified publication
	e int64
}

// recheckPath names how an energy recheck ran.
type recheckPath int

const (
	recheckNone recheckPath = iota // no recheck: trusted, or refused first
	recheckDiff                    // from the slot's reference
	recheckFull                    // from zero
)

// vet is Vet with an optional per-slot reference. The recheck starts
// from whichever of the reference and the zero vector differs from x
// in fewer bits — the one whose rows it reads fewer of — and a passed
// recheck makes x the new reference. The result is exact either way.
func (g *Gate) vet(pool *ga.Pool, x *bitvec.Vector, e int64, ref *reference) (Verdict, recheckPath) {
	if x == nil || x.Len() != g.n {
		g.quarantined.Add(1)
		return VerdictStructural, recheckNone
	}
	// UnknownEnergy is the pool's "not yet evaluated" sentinel; a
	// publisher claiming it is nonsensical and must not shadow real
	// entries.
	if e == ga.UnknownEnergy {
		g.quarantined.Add(1)
		return VerdictStructural, recheckNone
	}
	if !pool.WouldAdmit(x, e) {
		return VerdictPool, recheckNone
	}
	if g.trust {
		return VerdictAdmit, recheckNone
	}
	var y *bitvec.Vector
	var ey int64
	path := recheckFull
	if ref != nil && ref.x != nil && x.Hamming(ref.x) < x.OnesCount() {
		y, ey, path = ref.x, ref.e, recheckDiff
	}
	if g.energyFrom(x, y, ey) != e {
		g.quarantined.Add(1)
		return VerdictEnergy, path
	}
	if ref != nil {
		if ref.x == nil {
			ref.x = x.Clone()
		} else {
			ref.x.CopyFrom(x)
		}
		ref.e = e
	}
	return VerdictAdmit, path
}

// ingestGate binds a Gate to one engine's block-slot addressing: on
// top of the payload checks it enforces that block indices address a
// real slot — the invariant that protects the host's own memory
// safety — and attributes each publication to its slot for retargeting
// and per-block statistics.
type ingestGate struct {
	adm          *Gate
	activeBlocks int // per device
	totalBlocks  int
	metrics      *runMetrics
	// refs holds each slot's reference for the energy recheck, indexed
	// by global slot; allocated at the first addressable publication.
	refs []reference
}

// quarantined returns the underlying gate's refusal count.
func (g *ingestGate) quarantined() uint64 { return g.adm.Quarantined() }

// slot resolves a publication's block addressing. ok is false when the
// indices do not address a real slot (counted as quarantined — a
// corrupted header).
func (g *ingestGate) slot(s gpusim.Solution) (int, bool) {
	// Bound the indices before multiplying so absurd values from a
	// corrupted header can't overflow into a plausible-looking slot.
	numDevices := g.totalBlocks / g.activeBlocks
	if s.Device < 0 || s.Device >= numDevices || s.Block < 0 || s.Block >= g.activeBlocks {
		return 0, false
	}
	return s.Device*g.activeBlocks + s.Block, true
}

// ingest runs one publication through the gate and, when admitted, the
// pool. retarget reports whether the publishing slot could be
// identified and should receive a fresh target (true even for a
// quarantined payload from a healthy, addressable block — the block
// keeps working while its bad publication is discarded). slot is
// meaningful only when retarget is true.
func (g *ingestGate) ingest(host *ga.Host, s gpusim.Solution) (slot int, inserted, retarget bool) {
	slot, ok := g.slot(s)
	if !ok {
		g.adm.quarantined.Add(1)
		if m := g.metrics; m != nil {
			m.ingestReject(s, m.rejectStruct, "structural")
		}
		return 0, false, false
	}
	if g.refs == nil {
		g.refs = make([]reference, g.totalBlocks)
	}
	verdict, path := g.adm.vet(host.Pool(), s.X, s.Energy, &g.refs[slot])
	g.metrics.recheck(path)
	switch verdict {
	case VerdictStructural:
		if m := g.metrics; m != nil {
			m.ingestReject(s, m.rejectStruct, "structural")
		}
		return slot, false, true
	case VerdictPool:
		inserted = host.Insert(s.X, s.Energy) // counts the rejection
		if m := g.metrics; m != nil && !inserted {
			m.ingestReject(s, m.rejectPool, "pool")
		}
		return slot, inserted, true
	case VerdictEnergy:
		if m := g.metrics; m != nil {
			m.ingestReject(s, m.rejectEnergy, "energy mismatch")
		}
		return slot, false, true
	}
	inserted = host.Insert(s.X, s.Energy)
	if m := g.metrics; m != nil {
		if inserted {
			m.ingestAccept(s)
		} else {
			// WouldAdmit said yes but Insert said no: impossible while
			// the host loop is the pool's only writer, kept for safety.
			m.ingestReject(s, m.rejectPool, "pool")
		}
	}
	return slot, inserted, true
}
