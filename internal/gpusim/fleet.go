package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BlockContext is handed to every simulated CUDA block. Blocks must
// poll Stopped frequently (once per search iteration) and return when
// it reports true — the host has no way to preempt them, just as a
// real kernel runs to completion.
type BlockContext struct {
	// Device is the device ID, Block the block index within the
	// device's launch.
	Device, Block int
	// GlobalBlock is the block's unique index across all devices; it
	// doubles as the block's slot in the target buffer.
	GlobalBlock int
	// Incarnation counts respawns of this slot: 0 for the block started
	// by Launch, 1 for its first replacement, and so on.
	Incarnation int

	stop *atomic.Bool // launch-wide shutdown
	halt *atomic.Bool // this incarnation only (supersession by respawn)
}

// Stopped reports whether the host has requested shutdown, or this
// incarnation has been superseded by a respawn.
func (bc BlockContext) Stopped() bool {
	return bc.stop.Load() || (bc.halt != nil && bc.halt.Load())
}

// BlockFunc is the device-side program: the body of one CUDA block.
type BlockFunc func(bc BlockContext)

// slotState tracks the live incarnation of one block slot.
type slotState struct {
	halt        *atomic.Bool
	incarnation int
}

// Fleet is a set of identical simulated devices (the paper's four
// RTX 2080 Ti board, Fig. 5) meant to be shared by many concurrent
// jobs: it hands out individual Devices that a scheduler can lease to
// a job, reclaim when the job finishes, and re-lease to another job —
// the deployment shape of a long-lived multi-GPU solver service. A
// single solve attaches every device for its whole run.
//
// The Fleet itself holds no allocation state; which job currently owns
// which device is the scheduler's business (see internal/serve). The
// Fleet only fixes the hardware: how many devices exist and what model
// they are.
type Fleet struct {
	spec    DeviceSpec
	devices []*Device
}

// NewFleet returns a fleet of numDevices identical devices.
func NewFleet(spec DeviceSpec, numDevices int) (*Fleet, error) {
	if numDevices <= 0 {
		return nil, fmt.Errorf("gpusim: fleet needs at least one device, got %d", numDevices)
	}
	f := &Fleet{spec: spec}
	for i := 0; i < numDevices; i++ {
		f.devices = append(f.devices, &Device{Spec: spec, ID: i})
	}
	return f, nil
}

// Spec returns the device model shared by the whole fleet.
func (f *Fleet) Spec() DeviceSpec { return f.spec }

// Size returns the number of devices.
func (f *Fleet) Size() int { return len(f.devices) }

// Device returns device i (0 ≤ i < Size).
func (f *Fleet) Device(i int) *Device { return f.devices[i] }

// Device is one simulated GPU in a Fleet. Its ID is stable for the
// fleet's lifetime and doubles as the Device field of every
// BlockContext launched on it, so publications remain attributable to
// the physical card regardless of which job is running.
type Device struct {
	Spec DeviceSpec
	ID   int
}

// Launch starts fn on blocks resident blocks of this device and
// returns immediately. Block b runs with BlockContext{Device: d.ID,
// Block: b, GlobalBlock: slotBase + b}; the caller chooses slotBase so
// that slots map into its target-buffer numbering. The launch runs
// until Stop — one job's kernel on one card. Each block is one
// goroutine: the Go scheduler plays the role of the GPU's block
// scheduler, and the asynchrony between blocks that the paper relies
// on (§3.2 Step 4a: straight-search lengths vary per block, but blocks
// never synchronize) carries over directly.
func (d *Device) Launch(blocks, slotBase int, fn BlockFunc) (*DeviceRun, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("gpusim: device launch needs at least one block, got %d", blocks)
	}
	r := &DeviceRun{dev: d, blocks: blocks, slotBase: slotBase}
	r.slots = make([]slotState, blocks)
	r.wg.Add(blocks)
	for b := 0; b < blocks; b++ {
		halt := new(atomic.Bool)
		r.slots[b] = slotState{halt: halt}
		bc := BlockContext{
			Device:      d.ID,
			Block:       b,
			GlobalBlock: slotBase + b,
			stop:        &r.stop,
			halt:        halt,
		}
		go func() {
			defer r.wg.Done()
			fn(bc)
		}()
	}
	return r, nil
}

// DeviceRun is one job's kernel launch on one device, with per-slot
// halt/respawn machinery so the core supervisor can supersede silent
// blocks, and a Stop that joins only this device's goroutines — which
// is what lets a scheduler move a device between jobs without touching
// the rest of either job's fleet.
type DeviceRun struct {
	dev      *Device
	stop     atomic.Bool
	wg       sync.WaitGroup
	blocks   int
	slotBase int

	mu     sync.Mutex
	closed bool
	slots  []slotState
}

// Device returns the device this launch runs on.
func (r *DeviceRun) Device() *Device { return r.dev }

// Blocks returns the number of block slots in this launch.
func (r *DeviceRun) Blocks() int { return r.blocks }

// SlotBase returns the GlobalBlock index of this launch's block 0.
func (r *DeviceRun) SlotBase() int { return r.slotBase }

// Halt tells the current incarnation of local block b to stop without
// starting a replacement. The goroutine exits at its next Stopped poll.
func (r *DeviceRun) Halt(b int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b < 0 || b >= len(r.slots) {
		return
	}
	r.slots[b].halt.Store(true)
}

// Respawn supersedes the current incarnation of local block b (it is
// told to stop, as by Halt) and starts fn as a fresh incarnation in the
// same slot (same Device / Block / GlobalBlock, bumped Incarnation). It
// reports false — spawning nothing — when b is out of range or the
// launch has been stopped.
//
// The superseded goroutine may still be running when fn starts: a
// stalled block only notices its halt flag at its next Stopped poll.
// Shared per-slot state written by block code must therefore tolerate
// two incarnations briefly overlapping (the core solver uses atomics).
func (r *DeviceRun) Respawn(b int, fn BlockFunc) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || b < 0 || b >= len(r.slots) {
		return false
	}
	s := &r.slots[b]
	s.halt.Store(true)
	halt := new(atomic.Bool)
	s.halt = halt
	s.incarnation++
	bc := BlockContext{
		Device:      r.dev.ID,
		Block:       b,
		GlobalBlock: r.slotBase + b,
		Incarnation: s.incarnation,
		stop:        &r.stop,
		halt:        halt,
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn(bc)
	}()
	return true
}

// Incarnation returns the current incarnation number of local block b
// (0 while the originally launched goroutine is current).
func (r *DeviceRun) Incarnation(b int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b < 0 || b >= len(r.slots) {
		return 0
	}
	return r.slots[b].incarnation
}

// Stop signals this launch's blocks to finish and waits for all of
// them (including respawned incarnations) to return. It is idempotent
// and safe to call concurrently; no Respawn can start a new
// incarnation once Stop has begun.
func (r *DeviceRun) Stop() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.stop.Store(true)
	r.wg.Wait()
}
