package qubo

import (
	"testing"

	"abs/internal/rng"
)

// FuzzDenseKernel is the batched-kernel oracle: whatever flip sequence
// the fuzzer assembles — including adjacent re-flips and runs far
// longer than the tile width — the batched delta-evaluation kernel
// must agree with the scalar reference on every observable (energy,
// deltas, flip counter, best-solution sequence), and the batched
// state's invariants must survive CheckConsistency. A nonzero corner
// overwrites a third of the weights with that value, driving the int16
// extremes (−32768, 32767) through every tile lane and the tail.
func FuzzDenseKernel(f *testing.F) {
	f.Add(uint64(1), int16(0), []byte{0x00, 0x3f, 0x40, 0x41})
	f.Add(uint64(64), int16(0), []byte{0xff, 0xff, 0xff})
	f.Add(uint64(7), int16(0), []byte{0x10, 0x10, 0x10, 0x10}) // repeated bit
	f.Add(uint64(200), int16(0), []byte{})
	f.Add(uint64(131), int16(-32768), []byte{0x01, 0x80, 0x03, 0x81, 0x05, 0xfe, 0x07, 0x41})
	f.Add(uint64(131), int16(32767), []byte{0x01, 0x80, 0x03, 0x81, 0x05, 0xfe, 0x07, 0x41})
	f.Add(uint64(179), int16(-32768), []byte{0x00, 0x02, 0x00, 0x02, 0x7f, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, seed uint64, corner int16, flips []byte) {
		n := 4 + int(seed%180) // crosses 0–2 full 64-wide tiles
		p := sparseRandom(n, 1.0, seed)
		if corner != 0 {
			for i := 0; i < n; i++ {
				for j := i; j < n; j += 3 {
					p.SetWeight(i, j, corner)
				}
			}
		}
		scalar := newZeroStateMode(p, false)
		batched := newZeroStateMode(p, true)
		r := rng.New(seed ^ 0xabc)
		for step, b := range flips {
			// Mix payload-directed and window-minimum selections so the
			// fuzzer exercises both adversarial orders and the production
			// selection rule.
			var k int
			if b&1 == 0 {
				k = int(b>>1) % n
			} else {
				l := 1 + int(b>>1)%n
				offset := r.Intn(n)
				k = windowMinSelect(batched.Deltas(), offset, l)
				if ks := windowMinSelect(scalar.Deltas(), offset, l); ks != k {
					t.Fatalf("step %d: selection diverged: scalar %d, batched %d", step, ks, k)
				}
			}
			scalar.Flip(k)
			batched.Flip(k)
			if scalar.Energy() != batched.Energy() {
				t.Fatalf("step %d: energy scalar %d, batched %d",
					step, scalar.Energy(), batched.Energy())
			}
			if scalar.BestEnergy() != batched.BestEnergy() {
				t.Fatalf("step %d: best scalar %d, batched %d",
					step, scalar.BestEnergy(), batched.BestEnergy())
			}
		}
		sd, bd := scalar.Deltas(), batched.Deltas()
		for i := range sd {
			if sd[i] != bd[i] {
				t.Fatalf("Δ_%d: scalar %d, batched %d", i, sd[i], bd[i])
			}
		}
		if !scalar.X().Equal(batched.X()) {
			t.Fatal("solution vectors diverged")
		}
		sv, se, sok := scalar.Best()
		bv, be, bok := batched.Best()
		if sok != bok || se != be || (sok && !sv.Equal(bv)) {
			t.Fatalf("best diverged: scalar (%d,%v), batched (%d,%v)", se, sok, be, bok)
		}
		if err := batched.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}
