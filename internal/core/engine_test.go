package core

import (
	"sync"
	"testing"
	"time"

	"abs/internal/gpusim"
)

// TestEngineDynamicAttachDetach drives an Engine the way the serve
// scheduler does: start on one device of a two-device fleet, attach the
// second mid-run, detach the first, and finish — both devices' slot
// ranges must show work, and the run must end clean with no leaked
// goroutines (covered by the fault tests' leak checker pattern).
func TestEngineDynamicAttachDetach(t *testing.T) {
	p := randomProblem(64, 71)
	o := tinyOptions()
	o.NumGPUs = 2
	o.MaxDuration = 30 * time.Second // driver stops explicitly

	eng, err := NewEngine(p, o)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := gpusim.NewFleet(eng.Options().Device, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eng.MaxDevices() != 2 {
		t.Fatalf("MaxDevices = %d, want 2", eng.MaxDevices())
	}

	if err := eng.Attach(fleet.Device(0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(fleet.Device(0)); err == nil {
		t.Error("double attach of device 0 accepted")
	}
	if got := eng.AttachedDevices(); got != 1 {
		t.Fatalf("attached = %d, want 1", got)
	}

	pumpFor := func(d time.Duration) {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
			eng.Pump(time.Now())
			time.Sleep(eng.Options().PollInterval)
		}
	}
	pumpFor(30 * time.Millisecond)

	if err := eng.Attach(fleet.Device(1)); err != nil {
		t.Fatal(err)
	}
	if got := eng.AttachedDevices(); got != 2 {
		t.Fatalf("attached = %d, want 2", got)
	}
	pumpFor(30 * time.Millisecond)

	if !eng.Detach(fleet.Device(0)) {
		t.Error("detach of attached device 0 reported false")
	}
	if eng.Detach(fleet.Device(0)) {
		t.Error("second detach of device 0 reported true")
	}
	pumpFor(30 * time.Millisecond)

	res := eng.Finish(false)
	if res == nil {
		t.Fatal("nil result")
	}
	if res2 := eng.Finish(false); res2 != res {
		t.Error("Finish not idempotent")
	}
	if err := eng.Attach(fleet.Device(0)); err == nil {
		t.Error("attach accepted after Finish")
	}

	bpd := eng.BlocksPerDevice()
	if res.Blocks != 2*bpd {
		t.Fatalf("Blocks = %d, want %d", res.Blocks, 2*bpd)
	}
	perDevFlips := map[int]uint64{}
	for _, bs := range res.BlockStats {
		perDevFlips[bs.Device] += bs.Flips
	}
	if perDevFlips[0] == 0 {
		t.Error("device 0 did no work while attached")
	}
	if perDevFlips[1] == 0 {
		t.Error("late-attached device 1 did no work")
	}
	if got := p.Energy(res.Best); got != res.BestEnergy {
		t.Errorf("best vector energy %d != reported %d", got, res.BestEnergy)
	}
}

// TestEngineSnapshotIsLive: Snapshot must be callable from a non-pump
// goroutine while the run is hot, and report monotonically advancing
// flips.
func TestEngineSnapshotIsLive(t *testing.T) {
	p := randomProblem(48, 72)
	o := tinyOptions()
	o.MaxDuration = 30 * time.Second

	eng, err := NewEngine(p, o)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := gpusim.NewFleet(eng.Options().Device, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Attach(fleet.Device(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { // concurrent status reader, as the HTTP handlers are
		defer close(done)
		var last uint64
		for i := 0; i < 20; i++ {
			pr := eng.Snapshot(time.Now())
			if pr.Flips < last {
				t.Error("snapshot flips went backwards")
				return
			}
			last = pr.Flips
			time.Sleep(2 * time.Millisecond)
		}
	}()
	deadline := time.Now().Add(80 * time.Millisecond)
	for time.Now().Before(deadline) {
		eng.Pump(time.Now())
		time.Sleep(eng.Options().PollInterval)
	}
	<-done
	res := eng.Finish(true)
	if !res.Cancelled {
		t.Error("Cancelled not propagated through Finish")
	}
	if res.Flips == 0 {
		t.Error("no flips recorded")
	}
}

// TestFinishStopsEveryDeviceBeforeWaiting pins Finish's shutdown
// order: every attached device's blocks are told to stop before Finish
// waits on any of them. Each block lingers after it sees its stop
// flag, as a block finishing a long round would; were the devices
// stopped one after another, the second device's blocks would see
// their flag only after the first device's blocks had returned, and
// keep the CPU all that time.
func TestFinishStopsEveryDeviceBeforeWaiting(t *testing.T) {
	const linger = 200 * time.Millisecond
	o := tinyOptions()
	o.NumGPUs = 2
	o.MaxDuration = 30 * time.Second // Finish is called directly
	eng, err := NewEngine(randomProblem(32, 5), o)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sawStop, returned []time.Time
	eng.blockFn = func(bc gpusim.BlockContext) {
		for !bc.Stopped() {
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		sawStop = append(sawStop, time.Now())
		mu.Unlock()
		time.Sleep(linger)
		mu.Lock()
		returned = append(returned, time.Now())
		mu.Unlock()
	}
	fleet, err := gpusim.NewFleet(eng.Options().Device, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := eng.Attach(fleet.Device(i)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Finish(false)

	mu.Lock()
	defer mu.Unlock()
	if want := 2 * eng.BlocksPerDevice(); len(sawStop) != want || len(returned) != want {
		t.Fatalf("%d blocks saw the stop flag and %d returned, want %d", len(sawStop), len(returned), want)
	}
	lastSaw, firstReturn := sawStop[0], returned[0]
	for _, s := range sawStop {
		if s.After(lastSaw) {
			lastSaw = s
		}
	}
	for _, r := range returned {
		if r.Before(firstReturn) {
			firstReturn = r
		}
	}
	if !lastSaw.Before(firstReturn) {
		t.Errorf("a block saw its stop flag %v after the first block returned", lastSaw.Sub(firstReturn))
	}
}
