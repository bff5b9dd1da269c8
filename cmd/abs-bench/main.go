// Command abs-bench regenerates the tables and figures of the paper's
// evaluation section (§4) plus the ablation studies, printing
// paper-published values next to this host's measured and modelled
// values.
//
// Usage:
//
//	abs-bench -all [-scale quick|medium|full]
//	abs-bench -table 1a|1b|1c|2|3 [-scale quick|medium|full]
//	abs-bench -figure 8
//	abs-bench -ablation efficiency|straight|selection|pool|storage|
//	                    adaptive|ladder|parameters
//	abs-bench -report BENCH.json [-scale quick|medium|full]
//	abs-bench -cluster-report BENCH.json [-scale quick|medium|full]
//	abs-bench -sparse-report BENCH.json [-assert-ratio 2.0]
//	abs-bench -dense-report BENCH.json [-assert-dense-ratio 2.0]
//	abs-bench -backend-report BENCH.json [-scale quick|medium|full]
//
// Every benchmark solve accepts -backend to pin the solver backend
// (auto|straight|tabu|race; auto means straight).
//
// -report solves a fixed seeded problem set with telemetry attached
// and writes a machine-readable JSON report (per-device flips/sec,
// best energy, wall time per run). -cluster-report solves one
// G-set-style instance twice under the same budget — single node vs a
// two-worker loopback HTTP cluster — and writes the comparison with
// best-energy trajectories. -sparse-report solves a G-set-style, a
// Chimera and a dense random instance on both the dense and the sparse
// engine and writes flips/sec and time-to-target side by side;
// -assert-ratio additionally fails the process unless the sparse
// engine delivers at least that multiple of the dense flips/sec on
// every below-threshold instance (the CI regression gate).
// -dense-report solves fully dense random instances twice — the dense
// flip pinned to the scalar reference loop, then to the batched
// delta-evaluation kernel — and writes flips/sec side by side;
// -assert-dense-ratio fails the process unless the batched kernel
// delivers at least that multiple of the scalar flips/sec on every
// instance (the CI dense-kernel regression gate). -backend-report runs
// every registered solver backend over the sparse sweep's instance
// families and writes time-to-target side by side, with a per-family
// winner.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"abs/internal/bench"
	"abs/internal/core"
)

// renderFunc is one report section.
type renderFunc = func(io.Writer, bench.Scale) error

// parseScale maps the -scale flag value to a Scale.
func parseScale(name string) (bench.Scale, error) {
	switch name {
	case "quick":
		return bench.Quick(), nil
	case "medium":
		return bench.Medium(), nil
	case "full":
		return bench.Full(), nil
	default:
		return bench.Scale{}, fmt.Errorf("unknown scale %q", name)
	}
}

// dispatch resolves the flag combination to a renderer; nil means the
// combination is invalid and usage should be shown.
func dispatch(all bool, table, figure, ablation string) renderFunc {
	switch {
	case all:
		return bench.All
	case table != "":
		return map[string]renderFunc{
			"1a": bench.Table1a,
			"1b": bench.Table1b,
			"1c": bench.Table1c,
			"2":  bench.Table2,
			"3":  bench.Table3,
		}[table]
	case figure == "8":
		return bench.Figure8
	case ablation != "":
		return map[string]renderFunc{
			"efficiency": bench.AblationEfficiency,
			"straight":   bench.AblationStraight,
			"selection":  bench.AblationSelection,
			"pool":       bench.AblationPool,
			"storage":    bench.AblationStorage,
			"adaptive":   bench.AblationAdaptive,
			"ladder":     bench.AblationLadder,
			"parameters": bench.AblationParameters,
		}[ablation]
	default:
		return nil
	}
}

func main() {
	var (
		all      = flag.Bool("all", false, "run every table, figure and ablation")
		table    = flag.String("table", "", "regenerate one table: 1a, 1b, 1c, 2, 3")
		figure   = flag.String("figure", "", "regenerate one figure: 8")
		ablation = flag.String("ablation", "", "run one ablation: efficiency, straight, selection, pool, storage, adaptive, ladder, parameters")
		scale    = flag.String("scale", "quick", "experiment scale: quick, medium or full")
		report   = flag.String("report", "", "write a machine-readable JSON run report to this file")
		clusterR = flag.String("cluster-report", "", "write a single-node vs loopback-cluster comparison JSON to this file")
		sparseR  = flag.String("sparse-report", "", "write a dense-vs-sparse engine comparison JSON to this file")
		ratio    = flag.Float64("assert-ratio", 0, "with -sparse-report: fail unless sparse/dense flips ratio is at least this on below-threshold instances (0 disables)")
		denseR   = flag.String("dense-report", "", "write a scalar-vs-batched dense-kernel comparison JSON to this file")
		dratio   = flag.Float64("assert-dense-ratio", 0, "with -dense-report: fail unless batched/scalar flips ratio is at least this on every instance (0 disables; relaxed to no-regression without SIMD)")
		backendR = flag.String("backend-report", "", "write a per-backend time-to-target comparison JSON to this file")
		run      core.RunSpec
	)
	run.Flag(flag.CommandLine, "backend", "auto means straight; applies to every benchmark solve except -backend-report, which sweeps all backends")
	flag.Parse()
	if err := bench.SetDefaultRun(run); err != nil {
		fmt.Fprintln(os.Stderr, "abs-bench:", err)
		os.Exit(2)
	}

	s, err := parseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abs-bench:", err)
		os.Exit(2)
	}
	if *report != "" {
		if err := writeReportFile(*report, s, bench.WriteReport); err != nil {
			fmt.Fprintln(os.Stderr, "abs-bench:", err)
			os.Exit(1)
		}
		fmt.Println("report written to", *report)
	}
	if *clusterR != "" {
		if err := writeReportFile(*clusterR, s, bench.WriteClusterReport); err != nil {
			fmt.Fprintln(os.Stderr, "abs-bench:", err)
			os.Exit(1)
		}
		fmt.Println("cluster report written to", *clusterR)
	}
	if *sparseR != "" {
		if err := writeSparseReport(*sparseR, s, *ratio); err != nil {
			fmt.Fprintln(os.Stderr, "abs-bench:", err)
			os.Exit(1)
		}
		fmt.Println("sparse report written to", *sparseR)
	}
	if *denseR != "" {
		if err := writeDenseReport(*denseR, s, *dratio); err != nil {
			fmt.Fprintln(os.Stderr, "abs-bench:", err)
			os.Exit(1)
		}
		fmt.Println("dense report written to", *denseR)
	}
	if *backendR != "" {
		if err := writeBackendReport(*backendR, s); err != nil {
			fmt.Fprintln(os.Stderr, "abs-bench:", err)
			os.Exit(1)
		}
		fmt.Println("backend report written to", *backendR)
	}
	if (*report != "" || *clusterR != "" || *sparseR != "" || *denseR != "" || *backendR != "") &&
		!*all && *table == "" && *figure == "" && *ablation == "" {
		return
	}
	fn := dispatch(*all, *table, *figure, *ablation)
	if fn == nil {
		flag.Usage()
		os.Exit(2)
	}
	if err := fn(os.Stdout, s); err != nil {
		fmt.Fprintln(os.Stderr, "abs-bench:", err)
		os.Exit(1)
	}
}

// writeReportFile renders one JSON report to path.
func writeReportFile(path string, s bench.Scale, write func(io.Writer, bench.Scale) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSparseReport builds the dense-vs-sparse comparison once, writes
// it to path and, when minRatio > 0, enforces the sparse-speedup gate
// on the same measurement (written first so a failing run still leaves
// the evidence on disk).
func writeSparseReport(path string, s bench.Scale, minRatio float64) error {
	rep, err := bench.BuildSparseReport(s)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if minRatio > 0 {
		return bench.CheckSparseRatios(rep, minRatio)
	}
	return nil
}

// writeDenseReport builds the scalar-vs-batched kernel comparison
// once, writes it to path and, when minRatio > 0, enforces the
// speedup gate on the same measurement (written first so a failing
// run still leaves the evidence on disk).
func writeDenseReport(path string, s bench.Scale, minRatio float64) error {
	rep, err := bench.BuildDenseReport(s)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if minRatio > 0 {
		return bench.CheckDenseRatios(rep, minRatio)
	}
	return nil
}

// writeBackendReport builds the per-backend time-to-target comparison
// and writes it to path.
func writeBackendReport(path string, s bench.Scale) error {
	rep, err := bench.BuildBackendReport(s)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
