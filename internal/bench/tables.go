package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"abs/internal/chimera"
	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/maxcut"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/sa"
	"abs/internal/tsp"
)

// defaultRun is the backend choice every benchmark run uses; the zero
// value keeps the paper's straight program. Set once from the -backend
// flag before any benchmark runs.
var defaultRun core.RunSpec

// SetDefaultRun validates r and pins it for all subsequent benchmark
// solves.
func SetDefaultRun(r core.RunSpec) error {
	if err := r.Validate(); err != nil {
		return err
	}
	defaultRun = r
	return nil
}

// solveOptions returns the solver configuration shared by all
// time-to-solution rows.
func solveOptions() core.Options {
	o := core.DefaultOptions()
	o.Seed = 20200701 // fixed for reproducibility across report runs
	// SetDefaultRun validated defaultRun, so Apply cannot fail.
	_ = defaultRun.Apply(&o)
	return o
}

// Table1a regenerates Table 1(a): Max-Cut time-to-solution on the G-set
// families.
func Table1a(w io.Writer, s Scale) error {
	header(w, "Table 1(a): Max-Cut time-to-solution (G-set families, generated twins)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Graph\t#Bits\tType\tWeights\tTarget cut\t(desc)\tTime(s)\tPaper(s)\tRuns")
	for _, f := range maxcut.PaperGSet() {
		if f.N > s.MaxBits {
			fmt.Fprintf(tw, "%s\t%d\t-\t%s\tskipped at scale %q\t\t\t%.3g\t\n", f.Name, f.N, f.Weights, s.Name, f.PaperSec)
			continue
		}
		g, err := f.Generate()
		if err != nil {
			return err
		}
		p, err := maxcut.ToQUBO(g)
		if err != nil {
			return err
		}
		bestE, err := Calibrate(p, s.Calibration, solveOptions())
		if err != nil {
			return err
		}
		bestCut := maxcut.CutFromEnergy(bestE)
		targetCut := int64(math.Floor(float64(bestCut) * f.TargetFrac))
		res, err := MeasureTTS(TTSSpec{
			Name:         f.Name,
			Bits:         f.N,
			Problem:      p,
			TargetEnergy: maxcut.EnergyForCut(targetCut),
			PaperSec:     f.PaperSec,
			Repeats:      s.Repeats,
			Cap:          s.RunCap,
			Opt:          solveOptions(),
		})
		if err != nil {
			return err
		}
		kind := "random"
		if f.Planar {
			kind = "planar"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t(%.0f%% of best-found)\t%s\t%.3g\t%d/%d\n",
			f.Name, f.N, kind, f.Weights, targetCut, f.TargetFrac*100,
			FormatSeconds(res.MeanSec, res.Successes > 0), f.PaperSec, res.Successes, s.Repeats)
	}
	return tw.Flush()
}

// Table1b regenerates Table 1(b): TSP time-to-solution at the paper's
// five sizes.
func Table1b(w io.Writer, s Scale) error {
	header(w, "Table 1(b): TSP time-to-solution (TSPLIB-sized synthetic twins)")
	tw := newTab(w)
	fmt.Fprintln(tw, "Problem\t#Bits\tTarget len\t(desc)\tTime(s)\tPaper(s)\tRuns")
	for _, pi := range tsp.PaperTSP() {
		if pi.Bits() > s.MaxBits {
			fmt.Fprintf(tw, "%s\t%d\tskipped at scale %q\t\t\t%.3g\t\n", pi.Name, pi.Bits(), s.Name, pi.PaperSec)
			continue
		}
		inst := pi.Generate()
		best, exact := tsp.BestKnown(inst, 12, 2020)
		targetLen := int64(math.Ceil(float64(best) * pi.TargetSlack))
		enc, err := tsp.Encode(inst)
		if err != nil {
			return err
		}
		res, err := MeasureTTS(TTSSpec{
			Name:         pi.Name,
			Bits:         pi.Bits(),
			Problem:      enc.Problem(),
			TargetEnergy: enc.EnergyForLength(targetLen),
			PaperSec:     pi.PaperSec,
			Repeats:      s.Repeats,
			Cap:          s.RunCap,
			Opt:          solveOptions(),
		})
		if err != nil {
			return err
		}
		prov := "2-opt best"
		if exact {
			prov = "exact"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t(%s +%.0f%%)\t%s\t%.3g\t%d/%d\n",
			pi.Name, pi.Bits(), targetLen, prov, (pi.TargetSlack-1)*100,
			FormatSeconds(res.MeanSec, res.Successes > 0), pi.PaperSec, res.Successes, s.Repeats)
	}
	return tw.Flush()
}

// Table1c regenerates Table 1(c): synthetic random time-to-solution.
func Table1c(w io.Writer, s Scale) error {
	header(w, "Table 1(c): synthetic 16-bit random time-to-solution")
	tw := newTab(w)
	fmt.Fprintln(tw, "#Bits\tTarget energy\t(desc)\tTime(s)\tPaper(s)\tRuns")
	for _, row := range randqubo.PaperSizes() {
		if row.Bits > s.MaxBits {
			fmt.Fprintf(tw, "%d\tskipped at scale %q\t\t\t%.3g\t\n", row.Bits, s.Name, row.PaperSec)
			continue
		}
		p := randqubo.Generate(row.Bits, uint64(row.Bits))
		bestE, err := Calibrate(p, s.Calibration, solveOptions())
		if err != nil {
			return err
		}
		target := bestE
		desc := "best-found"
		if row.Relaxed {
			target = RelaxTarget(bestE, 0.99)
			desc = "99% of best-found"
		}
		res, err := MeasureTTS(TTSSpec{
			Name:         fmt.Sprintf("rand-%d", row.Bits),
			Bits:         row.Bits,
			Problem:      p,
			TargetEnergy: target,
			PaperSec:     row.PaperSec,
			Repeats:      s.Repeats,
			Cap:          s.RunCap,
			Opt:          solveOptions(),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t(%s)\t%s\t%.3g\t%d/%d\n",
			row.Bits, target, desc,
			FormatSeconds(res.MeanSec, res.Successes > 0), row.PaperSec, res.Successes, s.Repeats)
	}
	return tw.Flush()
}

// table2Row is one (n, p) configuration of Table 2.
type table2Row struct {
	n, p      int
	paperRate float64 // T/s on 4 GPUs, from the paper; 0 where the row is a corrected typo
}

// table2Rows lists the paper's configurations. The paper's printed
// thread counts for n = 2 k at p ∈ {8, 16, 32} are typos (2048/8 = 256,
// not 128); the occupancy columns are recomputed self-consistently.
func table2Rows() []table2Row {
	return []table2Row{
		{1024, 1, 0.221}, {1024, 2, 0.480}, {1024, 4, 0.924}, {1024, 8, 1.12}, {1024, 16, 1.24},
		{2048, 2, 0.304}, {2048, 4, 0.564}, {2048, 8, 0.821}, {2048, 16, 1.01}, {2048, 32, 0.807},
		{4096, 4, 0.407}, {4096, 8, 0.590}, {4096, 16, 0.732}, {4096, 32, 0.495},
		{8192, 8, 0.421}, {8192, 16, 0.537}, {8192, 32, 0.427},
		{16384, 16, 0.578}, {16384, 32, 0.513},
		{32768, 32, 0.439},
	}
}

// Table2 regenerates Table 2: occupancy columns (exact arithmetic),
// the modelled search rate on the paper's 4-GPU hardware, and the
// measured rate of the CPU simulation (1 virtual GPU) where the dense
// instance fits the measurement budget.
func Table2(w io.Writer, s Scale) error {
	header(w, "Table 2: throughput for synthetic random problems at 100% occupancy")
	tw := newTab(w)
	fmt.Fprintln(tw, "#Bits\tBits/thread\tThreads/block\tBlocks/GPU\tModel (4 GPU)\tPaper (4 GPU)\tMeasured (CPU sim, 1 GPU)")
	dev := gpusim.TuringRTX2080Ti()
	problems := map[int]*qubo.Problem{}
	for _, row := range table2Rows() {
		occ, err := dev.Occupancy(row.n, row.p)
		if err != nil {
			return err
		}
		model := gpusim.DefaultCostModel.SearchRate(dev, row.n, row.p, 4)
		measured := "-"
		if row.n <= s.MaxMeasuredBits {
			p, ok := problems[row.n]
			if !ok {
				p = randqubo.Generate(row.n, uint64(row.n))
				problems[row.n] = p
			}
			opt := solveOptions()
			opt.Device = dev
			opt.NumGPUs = 1
			opt.BitsPerThread = row.p
			res, err := MeasureRate(p, opt, s.RateBudget)
			if err != nil {
				return err
			}
			measured = FormatRate(res.SearchRate)
		}
		paper := "-"
		if row.paperRate > 0 {
			paper = fmt.Sprintf("%.3g T/s", row.paperRate)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			row.n, row.p, occ.ThreadsPerBlock, occ.ActiveBlocks,
			FormatRate(model), paper, measured)
	}
	return tw.Flush()
}

// Figure8 regenerates Figure 8: search-rate scaling with GPU count.
// The model scales exactly linearly (the paper's observed behaviour:
// devices share nothing); the measured column documents what a
// single shared CPU does instead and is expected to saturate.
func Figure8(w io.Writer, s Scale) error {
	header(w, "Figure 8: search-rate scaling with the number of GPUs (n=1024, p=16)")
	tw := newTab(w)
	fmt.Fprintln(tw, "#GPUs\tBlocks\tModelled rate\tModelled speedup\tMeasured (CPU sim)\tPaper speedup")
	dev := gpusim.TuringRTX2080Ti()
	p := randqubo.Generate(1024, 1024)
	base := gpusim.DefaultCostModel.SearchRate(dev, 1024, 16, 1)
	for g := 1; g <= 4; g++ {
		model := gpusim.DefaultCostModel.SearchRate(dev, 1024, 16, g)
		opt := solveOptions()
		opt.Device = dev
		opt.NumGPUs = g
		opt.BitsPerThread = 16
		res, err := MeasureRate(p, opt, s.RateBudget)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%.2f×\t%s\t%d×\n",
			g, res.Blocks, FormatRate(model), model/base, FormatRate(res.SearchRate), g)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "note: modelled scaling is linear because simulated devices share nothing,")
	fmt.Fprintln(w, "matching Fig. 8; the measured column runs every virtual GPU on one shared CPU.")
	return nil
}

// Table3 regenerates Table 3: the capability comparison matrix plus a
// live ABS-vs-SA baseline run that stands in for the cross-system
// throughput comparison.
func Table3(w io.Writer, s Scale) error {
	header(w, "Table 3: comparison with existing systems")
	tw := newTab(w)
	fmt.Fprintln(tw, "System\t#Bits\tConnection\tSearch rate\tBenchmark\tTechnology")
	rows := [][6]string{
		{"D-Wave 2000Q", "2048", "Chimera graph", "N/A", "N/A", "quantum annealer"},
		{"Ref. [22] (bit-sieve)", "1024", "fully-connected", "20.4 G/s", "TSP", "Intel Arria 10 FPGA"},
		{"Ref. [29] (FPGA SB)", "4096", "fully-connected", "N/A", "random Max-Cut", "Intel Arria 10 GX1150"},
		{"Ref. [13] (GPU SB)", "100000", "fully-connected", "N/A", "random Max-Cut", "8× Tesla V100"},
		{"ABS (paper)", "32768", "fully-connected", "1.24 T/s", "G-set, TSPLIB, random", "4× RTX 2080 Ti"},
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r[0], r[1], r[2], r[3], r[4], r[5])
	}
	dev := gpusim.TuringRTX2080Ti()
	// The paper's 1.24 T/s headline is the 1 k-bit peak configuration;
	// report the model at both that peak and the 32 k capability point.
	peak := gpusim.DefaultCostModel.SearchRate(dev, 1024, 16, 4)
	at32k := gpusim.DefaultCostModel.SearchRate(dev, 32768, 32, 4)
	fmt.Fprintf(tw, "ABS (this repro, modelled)\t32768\tfully-connected\t%s peak (1k bits), %s at 32k\tsame\tsimulated 4× RTX 2080 Ti\n",
		FormatRate(peak), FormatRate(at32k))
	// What the ABS algorithm would model on the rival SB machine's
	// hardware (Ref. [13]: 8× Tesla V100-SXM2).
	v100 := gpusim.TeslaV100SXM2()
	fmt.Fprintf(tw, "ABS (modelled on Ref. [13] hardware)\t32768\tfully-connected\t%s peak (1k bits)\tsame\tsimulated 8× Tesla V100\n",
		FormatRate(gpusim.DefaultCostModel.SearchRate(v100, 1024, 16, 8)))
	if err := tw.Flush(); err != nil {
		return err
	}

	// Live baseline: ABS vs plain parallel SA on the same instance and
	// wall budget. This replaces the cross-hardware rows the module
	// cannot run; the quantity compared is solution quality per second.
	n := 1024
	if n > s.MaxMeasuredBits {
		n = s.MaxMeasuredBits
	}
	p := randqubo.Generate(n, 99)
	budget := 4 * s.RateBudget
	absRes, err := MeasureRate(p, solveOptions(), budget)
	if err != nil {
		return err
	}
	saRes, err := sa.Solve(p, sa.Options{Seed: 7, MaxDuration: budget})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nlive baseline on rand-%d, %v budget:\n", n, budget)
	tw = newTab(w)
	fmt.Fprintln(tw, "Solver\tBest energy\tEvaluated solutions\tRate")
	fmt.Fprintf(tw, "ABS (this repro)\t%d\t%d\t%s\n", absRes.BestEnergy, absRes.Evaluated, FormatRate(absRes.SearchRate))
	rate := float64(saRes.Evaluated) / saRes.Elapsed.Seconds()
	fmt.Fprintf(tw, "parallel SA baseline\t%d\t%d\t%s\n", saRes.BestEnergy, saRes.Evaluated, FormatRate(rate))
	if err := tw.Flush(); err != nil {
		return err
	}

	// D-Wave's regime: a Chimera-native instance (C4: 128 spins, the
	// sparse-coupling class a 2000Q hosts without minor-embedding).
	// ABS is topology-free; its sparse engine even exploits the
	// Chimera graph's low degree.
	top := chimera.Topology{M: 4}
	model, err := chimera.RandomInstance(top, 7, 3, 2020)
	if err != nil {
		return err
	}
	cp, _, err := model.ToQUBO()
	if err != nil {
		return err
	}
	chRes, err := MeasureRate(cp, solveOptions(), budget)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nchimera-native instance (C%d: %d spins, %d couplers — D-Wave's native class):\n",
		top.M, top.N(), top.NumEdges())
	tw = newTab(w)
	fmt.Fprintln(tw, "Solver\tBest energy\tEngine\tFlips/s")
	fmt.Fprintf(tw, "ABS (this repro)\t%d\t%v\t%s\n",
		chRes.BestEnergy, chRes.Storage, FormatRate(float64(chRes.Flips)/chRes.Elapsed.Seconds()))
	return tw.Flush()
}

// All renders every table, figure and ablation at the given scale.
func All(w io.Writer, s Scale) error {
	start := time.Now()
	fmt.Fprintf(w, "ABS reproduction report (scale=%s)\n", s.Name)
	steps := []func(io.Writer, Scale) error{
		Table1a, Table1b, Table1c, Table2, Figure8, Table3,
		AblationEfficiency, AblationStraight, AblationSelection, AblationPool, AblationStorage, AblationAdaptive, AblationLadder, AblationParameters,
	}
	for _, f := range steps {
		if err := f(w, s); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nreport generated in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
