// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed time, checks every result, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload dense-2048 --seed 1 --seconds 25 --trace 0
//
// The workloads, the metrics and what each layer metric should move are
// described in perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"abs/internal/dkernel"
	"abs/internal/qubo"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated instances and solver seeds")
	secs := fs.Float64("seconds", 20, "measured time of the run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory for the span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		dur:      seconds(*secs),
		traced:   *trace == 1,
		spans:    *spans,
		size:     fullSize,
	}
	res, err := benchmark(context.Background(), cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	spans    string
	size     sizing
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark runs one workload and returns its checked result. Progress
// and the environment header go to out, failures to errOut.
func benchmark(ctx context.Context, cfg config, out, errOut io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, err
	}
	printHeader(out, cfg, w)
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var setup float64
	if !cfg.traced {
		if setup, err = setupSeconds(w, seconds(cfg.size.setupSeconds)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	warm, ph, err := run(ctx, w, cfg.dur, tr)
	if err != nil {
		return nil, err
	}
	checked := append(warm, ph.ops...)
	values, units := map[string]float64{}, perLayer
	if cfg.traced {
		extra, err := layers(ctx, w, ph, tr, values)
		if err != nil {
			return nil, err
		}
		checked = append(checked, extra...)
		if err := tr.write(filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		values, units = endToEnd(w, ph, setup), endToEndUnits
	}

	res := &result{Attempted: len(checked), Failed: tally(w, checked, errOut), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "# quality: worst result reaches %.4f of the descent median (reference %.2f)\n",
		worstQuality(checked), 1-referenceMargin)
	for _, u := range units {
		res.Metrics[u.name] = metric{Value: values[u.name], Unit: u.unit}
	}
	fmt.Fprintf(out, "# %s: attempted %d, failed %d, timed %d in %.2fs\n",
		w.name, res.Attempted, res.Failed, len(ph.ops), ph.wall.Seconds())
	for _, u := range units {
		fmt.Fprintf(out, "# %-28s %14.6g %s\n", u.name, values[u.name], u.unit)
	}
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tally checks every operation, reports each failure to errOut and
// returns how many failed.
func tally(w *workload, ops []opRecord, errOut io.Writer) int {
	failed := 0
	for _, r := range ops {
		if err := r.check(); err != nil {
			failed++
			fmt.Fprintf(errOut, "perfbench: %s on %s failed: %v\n", w.name, r.inst.name, err)
		}
	}
	return failed
}

// layers fills the per-layer metrics of a traced run: the core and serve
// layers from the traced operations (and from a probe of whichever of
// the two the workload does not drive itself), the lower layers from
// probes. It returns the probes' operations, which are checked like the
// workload's own.
func layers(ctx context.Context, w *workload, ph phase, tr *tracer, m map[string]float64) ([]opRecord, error) {
	r := rand.New(rand.NewPCG(w.seed, mix(w.seed, "probe")))
	var extra []opRecord
	if w.serve {
		extra = probeCore(ctx, w, tr)
		coreMetrics(tr, extra, m)
	} else {
		ops, err := probeServe(ctx, w, tr)
		if err != nil {
			return nil, err
		}
		extra = ops
		coreMetrics(tr, ph.subset(true), m)
	}
	serveMetrics(tr, m)
	overhead(ph, m)
	probeDKernel(w, r, m)
	probeQubo(w, r, m)
	if err := probeSearch(w, r, m); err != nil {
		return nil, err
	}
	if err := probeFleet(w, tr, m); err != nil {
		return nil, err
	}
	return extra, nil
}

// worstQuality returns the lowest ratio of a result's best energy to its
// instance's descent median.
func worstQuality(ops []opRecord) float64 {
	worst := math.Inf(1)
	for _, r := range ops {
		if r.res != nil && r.inst.descent < 0 {
			worst = min(worst, float64(r.res.BestEnergy)/float64(r.inst.descent))
		}
	}
	return worst
}

// printHeader prints the environment the numbers were measured in, so
// that runs on other hosts or kernels are not compared silently.
func printHeader(out io.Writer, cfg config, w *workload) {
	goamd64 := "-"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		w.name, cfg.seed, cfg.dur.Seconds(), cfg.traced)
	fmt.Fprintf(out, "# nproc=%d GOMAXPROCS=%d go=%s GOARCH=%s GOAMD64=%s dkernel=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH, goamd64, dkernel.Name())
	fmt.Fprintf(out, "# caches: %s\n", cacheSizes())
	for _, in := range w.insts {
		storage, bytes := workingSet(in.p)
		fmt.Fprintf(out, "# instance %s: n=%d density=%.4f storage=%s W=%d B reference=%d\n",
			in.name, in.p.N(), in.p.Density(), storage, bytes, in.ref)
	}
	fmt.Fprintf(out, "# budget: MaxFlips=%d per %s\n", w.maxFlips, map[bool]string{false: "solve", true: "job"}[w.serve])
}

// workingSet returns the storage auto selection picks for p and the
// bytes of its weights in that storage: the int16 matrix when dense, the
// adjacency arrays when sparse.
func workingSet(p *qubo.Problem) (string, int) {
	n := p.N()
	if qubo.AutoRep(p) != qubo.RepSparse {
		return "dense", 2 * n * n
	}
	nnz := int(qubo.Sparsify(p).AvgDegree()*float64(n) + 0.5)
	return "sparse", 6*nnz + 4*(n+1) + 2*n
}

// cacheSizes reads the CPU cache sizes the kernel reports, or says why
// it cannot.
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if t := read("type"); t != "Instruction" {
			parts = append(parts, fmt.Sprintf("L%s=%s", read("level"), read("size")))
		}
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, " ")
}
