// Package gpusim is the virtual multi-GPU substrate on which this
// reproduction runs the ABS device-side code.
//
// The paper implements the device side in CUDA C on four NVIDIA GeForce
// RTX 2080 Ti GPUs (§3.2). Go has no CUDA path, so this package models
// the three GPU properties the paper's results actually depend on:
//
//  1. Resource-limited block residency ("occupancy"): how many CUDA
//     blocks of a given shape are simultaneously resident on a device
//     (DeviceSpec.Occupancy — reproduces Table 2's #Threads/block and
//     #Active blocks/GPU columns exactly).
//  2. The per-flip execution cost of a resident block (CostModel —
//     reproduces the *shape* of Table 2's search-rate column: rising
//     with bits/thread while reduction overhead amortizes, then falling
//     as per-thread serial work and strided weight access dominate).
//  3. The asynchronous host↔device global-memory protocol (buffers.go:
//     target buffer, solution buffer with a monotonic counter polled by
//     the host, as in §3.1 Step 2).
//
// Blocks themselves execute as goroutines on the CPU (fleet.go), so
// every algorithmic code path of the paper runs for real; only the raw
// instruction throughput is modelled rather than reproduced.
package gpusim

import "fmt"

// DeviceSpec describes the resource limits of one simulated GPU.
// The zero value is unusable; start from TuringRTX2080Ti or ScaledCPU.
type DeviceSpec struct {
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoresPerSM is the number of scalar cores per SM (integer IPC 1).
	CoresPerSM int
	// ClockHz is the sustained core clock.
	ClockHz float64
	// WarpSize is the number of threads per warp.
	WarpSize int
	// MaxThreadsPerBlock bounds a single block's thread count.
	MaxThreadsPerBlock int
	// MaxThreadsPerSM bounds the total resident threads on one SM.
	MaxThreadsPerSM int
	// MaxWarpsPerSM bounds the resident warps on one SM.
	MaxWarpsPerSM int
	// MaxBlocksPerSM bounds the resident blocks on one SM.
	MaxBlocksPerSM int
	// RegistersPerSM is the 32-bit register file size per SM.
	RegistersPerSM int
	// RegistersPerThread is the per-thread register budget the kernel is
	// compiled for. The paper's kernel uses the full 64 so that a thread
	// can hold up to 32 Δ values plus locals (§3.2).
	RegistersPerThread int
	// SharedMemPerSM is the shared memory per SM in bytes; the block
	// keeps B, E_B and E_X there (§3.2).
	SharedMemPerSM int
	// GlobalMemBytes is the device memory size; a dense n-bit instance
	// needs 2·n² bytes of it.
	GlobalMemBytes int64
}

// TuringRTX2080Ti returns the specification of the paper's GPU
// (Turing TU102, Compute Capability 7.5, §3.2): 68 SMs, 64 KB shared
// memory, 1024 threads (32 warps) and 64 K registers per SM, 11 GB
// GDDR6.
func TuringRTX2080Ti() DeviceSpec {
	return DeviceSpec{
		Name:               "NVIDIA GeForce RTX 2080 Ti (simulated)",
		SMs:                68,
		CoresPerSM:         64,
		ClockHz:            1.545e9,
		WarpSize:           32,
		MaxThreadsPerBlock: 1024,
		MaxThreadsPerSM:    1024,
		MaxWarpsPerSM:      32,
		MaxBlocksPerSM:     16,
		RegistersPerSM:     64 * 1024,
		RegistersPerThread: 64,
		SharedMemPerSM:     64 * 1024,
		GlobalMemBytes:     11 << 30,
	}
}

// TeslaV100SXM2 returns the specification of the GPU used by the
// simulated-bifurcation machine the paper compares against (Ref. [13],
// 8× Tesla V100-SXM2): Volta GV100, 80 SMs, 64 FP32/INT32 cores per
// SM, 1.53 GHz boost, 16 GB HBM2, with the same residency rules as
// Turing that matter here. It exists so Table 3 can show what the ABS
// algorithm would model on the rival system's hardware.
func TeslaV100SXM2() DeviceSpec {
	return DeviceSpec{
		Name:               "NVIDIA Tesla V100-SXM2 (simulated)",
		SMs:                80,
		CoresPerSM:         64,
		ClockHz:            1.53e9,
		WarpSize:           32,
		MaxThreadsPerBlock: 1024,
		MaxThreadsPerSM:    2048,
		MaxWarpsPerSM:      64,
		MaxBlocksPerSM:     32,
		RegistersPerSM:     64 * 1024,
		RegistersPerThread: 64,
		SharedMemPerSM:     96 * 1024,
		GlobalMemBytes:     16 << 30,
	}
}

// ScaledCPU returns a miniature device spec for measured (as opposed to
// modelled) experiments on the host CPU: the same resource-limit
// *rules* as Turing but with sms SMs, so that the block population —
// and with it the per-block memory footprint of the Δ register files —
// stays within CPU budgets while preserving the occupancy arithmetic.
func ScaledCPU(sms int) DeviceSpec {
	d := TuringRTX2080Ti()
	d.Name = fmt.Sprintf("scaled-cpu-%dsm", sms)
	d.SMs = sms
	return d
}

// Occupancy is the residency computed for one block shape on one
// device; it reproduces the per-configuration columns of Table 2.
type Occupancy struct {
	// BitsPerThread is the p of §3.2: bits (and Δ registers) per thread.
	BitsPerThread int
	// ThreadsPerBlock is ceil(n / p).
	ThreadsPerBlock int
	// WarpsPerBlock is ceil(ThreadsPerBlock / WarpSize).
	WarpsPerBlock int
	// BlocksPerSM is the number of simultaneously resident blocks per SM
	// under the thread, warp, block and register limits.
	BlocksPerSM int
	// ActiveBlocks is BlocksPerSM · SMs, Table 2's "#Active blocks/GPU".
	ActiveBlocks int
	// Fraction is resident warps over MaxWarpsPerSM; the paper tunes
	// every configuration to 1.0 (100 % occupancy).
	Fraction float64
}

// Occupancy computes the block shape and residency for an n-bit problem
// at p bits per thread. It returns an error when the shape is
// infeasible on the device (too many threads, or the Δ registers do not
// fit the per-thread budget).
func (d DeviceSpec) Occupancy(n, p int) (Occupancy, error) {
	if n <= 0 {
		return Occupancy{}, fmt.Errorf("gpusim: non-positive problem size %d", n)
	}
	if p <= 0 {
		return Occupancy{}, fmt.Errorf("gpusim: non-positive bits per thread %d", p)
	}
	// A thread stores p Δ values plus p solution bits packed into one
	// register, plus locals; half the register budget is Δ storage
	// (32-bit Δ registers, §3.2: 64 registers support up to 32 Δ).
	if p > d.RegistersPerThread/2 {
		return Occupancy{}, fmt.Errorf("gpusim: %d bits per thread exceeds register budget (max %d)",
			p, d.RegistersPerThread/2)
	}
	threads := (n + p - 1) / p
	if threads > d.MaxThreadsPerBlock {
		return Occupancy{}, fmt.Errorf("gpusim: n=%d at p=%d needs %d threads per block (max %d)",
			n, p, threads, d.MaxThreadsPerBlock)
	}
	warps := (threads + d.WarpSize - 1) / d.WarpSize
	blocks := d.MaxBlocksPerSM
	if byThreads := d.MaxThreadsPerSM / threads; byThreads < blocks {
		blocks = byThreads
	}
	if byWarps := d.MaxWarpsPerSM / warps; byWarps < blocks {
		blocks = byWarps
	}
	if byRegs := d.RegistersPerSM / (d.RegistersPerThread * threads); byRegs < blocks {
		blocks = byRegs
	}
	if blocks < 1 {
		return Occupancy{}, fmt.Errorf("gpusim: block shape n=%d p=%d does not fit on %s", n, p, d.Name)
	}
	return Occupancy{
		BitsPerThread:   p,
		ThreadsPerBlock: threads,
		WarpsPerBlock:   warps,
		BlocksPerSM:     blocks,
		ActiveBlocks:    blocks * d.SMs,
		Fraction:        float64(blocks*warps) / float64(d.MaxWarpsPerSM),
	}, nil
}

// BestBitsPerThread returns the feasible p (a power of two, as in
// Table 2) that maximizes the modelled search rate for an n-bit
// problem, i.e. the configuration the paper's auto-selection would pick
// ("the number of active blocks is automatically selected so that the
// occupancy becomes 100 %", §4.3). Shapes reaching 100 % occupancy win
// over partial-occupancy shapes; tiny instances that cannot fill the
// device at any p (n below WarpSize · MaxBlocksPerSM) fall back to the
// best partial shape.
func (d DeviceSpec) BestBitsPerThread(n int) (int, error) {
	bestP, bestRate, bestFrac := 0, 0.0, 0.0
	for p := 1; p <= d.RegistersPerThread/2; p *= 2 {
		occ, err := d.Occupancy(n, p)
		if err != nil {
			continue
		}
		rate := DefaultCostModel.SearchRate(d, n, p, 1)
		better := occ.Fraction > bestFrac ||
			(occ.Fraction == bestFrac && rate > bestRate)
		if better {
			bestP, bestRate, bestFrac = p, rate, occ.Fraction
		}
	}
	if bestP == 0 {
		return 0, fmt.Errorf("gpusim: no feasible block shape for n=%d on %s", n, d.Name)
	}
	return bestP, nil
}

// FitsGlobalMemory reports whether a dense n-bit instance (2·n² bytes of
// weights) fits in device memory, with a small allowance for buffers.
func (d DeviceSpec) FitsGlobalMemory(n int) bool {
	need := 2*int64(n)*int64(n) + (64 << 20)
	return need <= d.GlobalMemBytes
}
