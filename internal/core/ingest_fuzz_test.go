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
// lying energy into the pool; pool invariants must hold throughout.
//
// Before the fuzzed publication, its slot (when addressable) publishes
// one honest vector, prime, a few bits away from it: the per-slot gates
// verify prime and keep it as the slot's reference, so the fuzzed
// publication is rechecked from that reference whenever that reads
// fewer rows than a check from zero. Full-recheck twins see prime
// inserted straight into their pools, hold no reference, and recheck
// from zero. All four gates — reference and full, on the dense matrix
// and on the sparse adjacency view (what an engine on sparse storage
// installs) — must reach the identical verdict and quarantine count.
func FuzzIngestGate(f *testing.F) {
	const (
		n            = 24
		activeBlocks = 16
		totalBlocks  = 32
	)
	problem := randomProblem(n, 77)
	sp := qubo.Sparsify(problem)

	f.Add([]byte{0xff, 0x01}, 24, int64(-10), 0, 0, false, uint32(0))
	f.Add([]byte{}, 0, int64(0), -1, 99, false, uint32(1))
	f.Add([]byte{0xaa}, 7, ga.UnknownEnergy, 1, 15, true, uint32(3))
	f.Add([]byte{0x01, 0x02, 0x03}, 1<<16, int64(1), 1<<60, 1<<60, false, uint32(0))
	f.Add([]byte{0x10}, 24, int64(3), 1, 3, true, uint32(0x11))
	// An honest claim: the admit path, where every recheck must agree.
	honest := []byte{0x5a, 0xc3, 0x0f}
	hx := vectorFrom(honest, n)
	f.Add(honest, n, problem.Energy(hx), 1, 2, false, uint32(0x8001))
	// A lie one off the truth, two bits from an honest prime: caught
	// on the diff path.
	f.Add(honest, n, problem.Energy(hx)+1, 0, 5, false, uint32(0x0104))

	f.Fuzz(func(t *testing.T, bits []byte, width int, energy int64, device, block int, trust bool, flips uint32) {
		// Width 0 is unconstructible (bitvec.New panics by design), so
		// non-positive and absurd widths become the nil-vector case.
		var x *bitvec.Vector
		if width >= 1 && width <= 4096 {
			x = vectorFrom(bits, width)
		}
		s := gpusim.Solution{X: x, Energy: energy, Device: device, Block: block}

		// prime is x with the bits flips selects inverted (or, when x is
		// not n bits wide, the raw bits at width n): honest by
		// construction.
		prime := vectorFrom(bits, n)
		if x != nil && x.Len() == n {
			prime = x.Clone()
		}
		for k := 0; k < n; k++ {
			if flips>>uint(k)&1 == 1 {
				prime.Flip(k)
			}
		}
		primeE := problem.Energy(prime)

		type twin struct {
			name string
			gate *ingestGate
			host *ga.Host
		}
		var twins []twin
		for _, tw := range []struct {
			name string
			adm  *Gate
			ref  bool
		}{
			{"dense/full", NewGate(problem, trust), false},
			{"dense/ref", NewGate(problem, trust), true},
			{"sparse/full", newSparseGate(sp, trust), false},
			{"sparse/ref", newSparseGate(sp, trust), true},
		} {
			// A fresh pool per input keeps invariant checks cheap and
			// the pool state deterministic per case.
			host, err := ga.NewHost(n, ga.DefaultConfig(), rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			g := &ingestGate{adm: tw.adm, activeBlocks: activeBlocks, totalBlocks: totalBlocks}
			if _, ok := g.slot(s); ok {
				if tw.ref {
					ps := gpusim.Solution{X: prime.Clone(), Energy: primeE, Device: device, Block: block}
					if _, inserted, _ := g.ingest(host, ps); !inserted {
						t.Fatalf("%s: honest prime refused", tw.name)
					}
				} else if !host.Insert(prime.Clone(), primeE) {
					t.Fatalf("%s: prime not inserted", tw.name)
				}
			}
			twins = append(twins, twin{tw.name, g, host})
		}

		full := twins[0]
		slot, inserted, retarget := full.gate.ingest(full.host, s)
		for _, tw := range twins[1:] {
			tSlot, tInserted, tRetarget := tw.gate.ingest(tw.host, s)
			if tSlot != slot || tInserted != inserted || tRetarget != retarget ||
				tw.gate.quarantined() != full.gate.quarantined() {
				t.Fatalf("%s verdict (%d,%v,%v,q=%d) differs from %s (%d,%v,%v,q=%d)",
					tw.name, tSlot, tInserted, tRetarget, tw.gate.quarantined(),
					full.name, slot, inserted, retarget, full.gate.quarantined())
			}
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
		for _, tw := range twins {
			if err := tw.host.Pool().CheckInvariants(); err != nil {
				t.Fatalf("%s: pool invariants broken after ingest: %v", tw.name, err)
			}
			// A verified reference is always exact.
			for g, ref := range tw.gate.refs {
				if ref.x != nil && problem.Energy(ref.x) != ref.e {
					t.Fatalf("%s: slot %d reference claims %d, true %d", tw.name, g, ref.e, problem.Energy(ref.x))
				}
			}
		}
		// A second identical ingest must never panic either (duplicate
		// path) and must keep invariants.
		twins[1].gate.ingest(twins[1].host, s)
		if err := twins[1].host.Pool().CheckInvariants(); err != nil {
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
