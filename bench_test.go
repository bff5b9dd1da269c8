// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section, plus the ablations of DESIGN.md. Each
// iteration renders the corresponding report at a reduced scale; run
// cmd/abs-bench -scale full for the paper-faithful version.
package abs

import (
	"context"
	"io"
	"testing"
	"time"

	"abs/internal/bench"
)

// benchScale keeps each iteration of the table benchmarks bounded; the
// numbers it reports are end-to-end report-generation times, while the
// tables themselves (printed by cmd/abs-bench) carry the scientific
// content.
func benchScale() bench.Scale {
	return bench.Scale{
		Name:            "bench",
		Calibration:     150 * time.Millisecond,
		RunCap:          1 * time.Second,
		Repeats:         1,
		RateBudget:      80 * time.Millisecond,
		MaxBits:         1100,
		MaxMeasuredBits: 2048,
	}
}

func benchTable(b *testing.B, fn func(io.Writer, bench.Scale) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fn(io.Discard, benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1aMaxCut regenerates Table 1(a): G-set Max-Cut
// time-to-solution.
func BenchmarkTable1aMaxCut(b *testing.B) { benchTable(b, bench.Table1a) }

// BenchmarkTable1bTSP regenerates Table 1(b): TSPLIB-sized TSP
// time-to-solution.
func BenchmarkTable1bTSP(b *testing.B) { benchTable(b, bench.Table1b) }

// BenchmarkTable1cRandom regenerates Table 1(c): synthetic random
// time-to-solution.
func BenchmarkTable1cRandom(b *testing.B) { benchTable(b, bench.Table1c) }

// BenchmarkTable2Throughput regenerates Table 2: the occupancy sweep
// with modelled and measured search rates.
func BenchmarkTable2Throughput(b *testing.B) { benchTable(b, bench.Table2) }

// BenchmarkFigure8Scaling regenerates Figure 8: search-rate scaling
// with GPU count.
func BenchmarkFigure8Scaling(b *testing.B) { benchTable(b, bench.Figure8) }

// BenchmarkTable3Comparison regenerates Table 3: the system comparison
// plus the live ABS-vs-SA baseline.
func BenchmarkTable3Comparison(b *testing.B) { benchTable(b, bench.Table3) }

// BenchmarkAblationAlgorithms measures the search-efficiency ladder of
// Algorithms 1–4 (Lemmas 1–3, Theorem 1).
func BenchmarkAblationAlgorithms(b *testing.B) { benchTable(b, bench.AblationEfficiency) }

// BenchmarkAblationStraightSearch measures GA-handoff strategies
// (Algorithm 5 vs. re-initialization).
func BenchmarkAblationStraightSearch(b *testing.B) { benchTable(b, bench.AblationStraight) }

// BenchmarkAblationSelection compares bit-selection policies on a fixed
// flip budget.
func BenchmarkAblationSelection(b *testing.B) { benchTable(b, bench.AblationSelection) }

// BenchmarkAblationPool measures the solution-pool distinctness guard.
func BenchmarkAblationPool(b *testing.B) { benchTable(b, bench.AblationPool) }

// BenchmarkAblationStorage compares the dense paper kernel with the
// sparse adjacency engine on a G-set-family graph.
func BenchmarkAblationStorage(b *testing.B) { benchTable(b, bench.AblationStorage) }

// BenchmarkAblationAdaptive compares the static window ladder with the
// adaptive per-block rescheduler.
func BenchmarkAblationAdaptive(b *testing.B) { benchTable(b, bench.AblationAdaptive) }

// BenchmarkSolveRate1k measures raw end-to-end solver throughput on the
// canonical 1 k-bit instance — the quantity behind the paper's
// "search rate" headline, on this host.
func BenchmarkSolveRate1k(b *testing.B) {
	p := RandomProblem(1024, 1)
	for i := 0; i < b.N; i++ {
		res, err := SolveForContext(context.Background(), p, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SearchRate, "solutions/s")
	}
}

// BenchmarkAblationParameters sweeps LocalSteps × PoolSize sensitivity.
func BenchmarkAblationParameters(b *testing.B) { benchTable(b, bench.AblationParameters) }

// BenchmarkAblationLadder reports pool admissions by window-ladder rung.
func BenchmarkAblationLadder(b *testing.B) { benchTable(b, bench.AblationLadder) }
