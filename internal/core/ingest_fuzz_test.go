package core

import (
	"testing"

	"abs/internal/bitvec"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/rng"
)

// FuzzIngestGate throws arbitrary publications — any vector width and
// content, any claimed energy, any device/block indices — at the host's
// validation gate. Whatever arrives, the gate must not panic, must only
// retarget addressable slots, and (with validation on) must never let a
// lying energy into the pool; pool invariants must hold throughout. A
// twin gate rechecking on the sparse adjacency view (what an engine on
// sparse storage installs) must reach the identical verdict.
func FuzzIngestGate(f *testing.F) {
	const (
		n            = 24
		activeBlocks = 16
		totalBlocks  = 32
	)
	problem := randomProblem(n, 77)
	sp := qubo.Sparsify(problem)

	f.Add([]byte{0xff, 0x01}, 24, int64(-10), 0, 0, false)
	f.Add([]byte{}, 0, int64(0), -1, 99, false)
	f.Add([]byte{0xaa}, 7, ga.UnknownEnergy, 1, 15, true)
	f.Add([]byte{0x01, 0x02, 0x03}, 1<<16, int64(1), 1<<60, 1<<60, false)
	f.Add([]byte{0x10}, 24, int64(3), 1, 3, true)
	// An honest claim: the admit path, where the two rechecks must agree.
	honest := []byte{0x5a, 0xc3, 0x0f}
	f.Add(honest, n, problem.Energy(vectorFrom(honest, n)), 1, 2, false)

	f.Fuzz(func(t *testing.T, bits []byte, width int, energy int64, device, block int, trust bool) {
		// Rebuild a fresh pool per input so invariant checks are cheap
		// and the pool state is deterministic per case.
		host, err := ga.NewHost(n, ga.DefaultConfig(), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		gate := &ingestGate{
			adm:          NewGate(problem, trust),
			activeBlocks: activeBlocks,
			totalBlocks:  totalBlocks,
		}

		sparseHost, err := ga.NewHost(n, ga.DefaultConfig(), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		sparseGate := &ingestGate{
			adm:          newSparseGate(sp, trust),
			activeBlocks: activeBlocks,
			totalBlocks:  totalBlocks,
		}

		// Width 0 is unconstructible (bitvec.New panics by design), so
		// non-positive and absurd widths become the nil-vector case.
		var x *bitvec.Vector
		if width >= 1 && width <= 4096 {
			x = vectorFrom(bits, width)
		}
		s := gpusim.Solution{X: x, Energy: energy, Device: device, Block: block}

		slot, inserted, retarget := gate.ingest(host, s)
		sSlot, sInserted, sRetarget := sparseGate.ingest(sparseHost, s)
		if sSlot != slot || sInserted != inserted || sRetarget != retarget ||
			sparseGate.quarantined() != gate.quarantined() {
			t.Fatalf("sparse recheck verdict (%d,%v,%v,q=%d) differs from dense (%d,%v,%v,q=%d)",
				sSlot, sInserted, sRetarget, sparseGate.quarantined(),
				slot, inserted, retarget, gate.quarantined())
		}
		if retarget && (slot < 0 || slot >= totalBlocks) {
			t.Fatalf("retarget of unaddressable slot %d", slot)
		}
		if inserted {
			if x == nil || x.Len() != n {
				t.Fatal("structurally invalid publication inserted")
			}
			if energy == ga.UnknownEnergy {
				t.Fatal("unknown-energy sentinel inserted as a device energy")
			}
			if !trust && problem.Energy(x) != energy {
				t.Fatalf("validated insert of a lying energy: claimed %d, true %d",
					energy, problem.Energy(x))
			}
		}
		if err := host.Pool().CheckInvariants(); err != nil {
			t.Fatalf("pool invariants broken after ingest: %v", err)
		}
		// A second identical ingest must never panic either (duplicate
		// path) and must keep invariants.
		gate.ingest(host, s)
		if err := host.Pool().CheckInvariants(); err != nil {
			t.Fatalf("pool invariants broken after duplicate ingest: %v", err)
		}
	})
}

// vectorFrom unpacks the low width bits of bits (LSB first); missing
// bytes read as zeros.
func vectorFrom(bits []byte, width int) *bitvec.Vector {
	x := bitvec.New(width)
	for i := 0; i < width && i/8 < len(bits); i++ {
		x.Set(i, int(bits[i/8]>>(uint(i)%8))&1)
	}
	return x
}
