package gpusim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abs/internal/bitvec"
)

// TestRunStopConcurrentIdempotent calls Stop from many goroutines at
// once: every call must return (after the blocks join) and none may
// panic. Run under -race this also proves Stop's internal state is
// properly synchronized.
func TestRunStopConcurrentIdempotent(t *testing.T) {
	runs := launchAll(t, ScaledCPU(1), 2, 64, 16, func(bc BlockContext) {
		for !bc.Stopped() {
			time.Sleep(50 * time.Microsecond)
		}
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, run := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run.Stop()
			}()
		}
	}
	wg.Wait()
	for _, run := range runs {
		run.Stop() // and once more after everything joined
	}
}

// TestTargetBufferConcurrent hammers Store and Load from concurrent
// goroutines; -race must stay silent and every loaded vector must be
// one that was stored with a version that only moves forward.
func TestTargetBufferConcurrent(t *testing.T) {
	const slots = 4
	tb := NewTargetBuffer(slots)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				tb.Store(i%slots, bitvec.New(8))
				i++
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				x, v, ok := tb.Load(slot%slots, last)
				if !ok {
					continue
				}
				if v <= last {
					t.Errorf("version went backwards: %d after %d", v, last)
					return
				}
				if x == nil || x.Len() != 8 {
					t.Error("loaded vector wrong")
					return
				}
				last = v
			}
		}(r)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestBoundedSolutionBufferDropsOldest(t *testing.T) {
	b := NewBoundedSolutionBuffer(4)
	x := bitvec.New(8)
	for i := 0; i < 10; i++ {
		b.Publish(Solution{X: x, Energy: int64(i), Block: i})
	}
	if b.Counter() != 10 {
		t.Errorf("counter = %d, want 10 (drops still count publications)", b.Counter())
	}
	got := b.Drain()
	// Four resident (the newest) plus the salvage register holding the
	// best evicted entry (energy 0, published first).
	if len(got) != 5 {
		t.Fatalf("drained %d entries, want 5", len(got))
	}
	for i := 0; i < 4; i++ {
		if got[i].Energy != int64(6+i) {
			t.Errorf("entry %d energy %d, want %d (drop-oldest order)", i, got[i].Energy, 6+i)
		}
	}
	if got[4].Energy != 0 {
		t.Errorf("salvage register held energy %d, want best evicted 0", got[4].Energy)
	}
	if b.Dropped() != 5 {
		t.Errorf("dropped = %d, want 5 (6 evicted, 1 salvaged)", b.Dropped())
	}
	if b.Drain() != nil {
		t.Error("second drain not empty")
	}
}

func TestBoundedSolutionBufferSalvageKeepsBest(t *testing.T) {
	b := NewBoundedSolutionBuffer(1)
	x := bitvec.New(8)
	b.Publish(Solution{X: x, Energy: 5})
	b.Publish(Solution{X: x, Energy: -100}) // evicts 5
	b.Publish(Solution{X: x, Energy: 7})    // evicts -100, which must be salvaged
	got := b.Drain()
	if len(got) != 2 || got[0].Energy != 7 || got[1].Energy != -100 {
		t.Fatalf("drain = %+v, want [7, salvaged -100]", got)
	}
}

func TestUnboundedSolutionBufferNeverDrops(t *testing.T) {
	b := NewSolutionBuffer()
	x := bitvec.New(8)
	for i := 0; i < 5000; i++ {
		b.Publish(Solution{X: x, Energy: int64(i)})
	}
	if b.Dropped() != 0 {
		t.Errorf("unbounded buffer dropped %d", b.Dropped())
	}
	if got := b.Drain(); len(got) != 5000 {
		t.Errorf("drained %d, want 5000", len(got))
	}
}

// TestRespawnReplacesIncarnation supersedes a block and checks the
// replacement runs with the same identity, a bumped incarnation, and
// that the superseded goroutine observes its halt flag.
func TestRespawnReplacesIncarnation(t *testing.T) {
	var started [8]atomic.Int64 // by incarnation, for block 0
	fn := func(bc BlockContext) {
		if bc.GlobalBlock == 0 && bc.Incarnation < len(started) {
			started[bc.Incarnation].Add(1)
		}
		for !bc.Stopped() {
			time.Sleep(20 * time.Microsecond)
		}
	}
	run := launchAll(t, ScaledCPU(1), 1, 64, 16, fn)[0]
	if run.Incarnation(0) != 0 {
		t.Errorf("fresh slot incarnation %d", run.Incarnation(0))
	}
	if !run.Respawn(0, fn) {
		t.Fatal("Respawn refused on a live run")
	}
	if run.Incarnation(0) != 1 {
		t.Errorf("after respawn incarnation %d, want 1", run.Incarnation(0))
	}
	deadline := time.Now().Add(time.Second)
	for started[1].Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if started[1].Load() != 1 {
		t.Error("replacement incarnation never ran")
	}
	if run.Respawn(-1, fn) || run.Respawn(run.Blocks(), fn) {
		t.Error("out-of-range respawn accepted")
	}
	run.Stop()
	if run.Respawn(0, fn) {
		t.Error("respawn after Stop accepted")
	}
	if started[0].Load() != 1 {
		t.Errorf("original incarnation started %d times", started[0].Load())
	}
}

// TestHaltStopsOnlyOneSlot halts one block and confirms the others keep
// running until the run-wide Stop.
func TestHaltStopsOnlyOneSlot(t *testing.T) {
	var alive atomic.Int64
	run := launchAll(t, ScaledCPU(1), 1, 64, 16, func(bc BlockContext) {
		alive.Add(1)
		defer alive.Add(-1)
		for !bc.Stopped() {
			time.Sleep(20 * time.Microsecond)
		}
	})[0]
	total := int64(run.Blocks())
	deadline := time.Now().Add(time.Second)
	for alive.Load() != total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	run.Halt(0)
	deadline = time.Now().Add(time.Second)
	for alive.Load() != total-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if alive.Load() != total-1 {
		t.Errorf("after Halt(0): %d alive, want %d", alive.Load(), total-1)
	}
	run.Halt(-99) // out of range: no-op
	run.Stop()
	if alive.Load() != 0 {
		t.Errorf("after Stop: %d alive", alive.Load())
	}
}
