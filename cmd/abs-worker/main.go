// Command abs-worker runs one cluster worker node: a full local ABS
// engine (its own pool, simulated devices and supervisor) that joins a
// coordinator started with `abs-serve -coordinator`, leases target
// solutions from the shared cross-node pool and publishes its best
// local solutions back.
//
// Usage:
//
//	abs-worker -coordinator http://host:8080 [-id worker-a]
//	           [-devices 1] [-sms 2] [-exchange 200ms] [-publish-k 8]
//	           [-backend auto|straight|tabu|race]
//	           [-addr :9090] [-metrics-addr :9091] [-trace-out run.jsonl]
//
// The worker needs nothing but the coordinator's address — the
// instance itself arrives in the registration grant. A worker that
// loses its coordinator keeps searching locally and re-registers under
// jittered exponential backoff; one that is killed simply stops
// heartbeating, and the coordinator redistributes its leases.
//
// When -addr is set, the worker serves /healthz (liveness), /readyz
// (readiness: registered and devices attached) and the telemetry plane
// (/metrics, /trace) on it. -metrics-addr and -trace-out are the flag
// surface shared with abs-solve: a dedicated telemetry listener and a
// JSONL stream of every lifecycle event (RPC errors, injected faults,
// engine publications), including the worker's spans in the
// coordinator's stitched run trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"abs/internal/cluster"
	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/health"
	"abs/internal/obsflags"
	"abs/internal/telemetry"
)

type config struct {
	coordinator string
	id          string
	devices     int
	sms         int
	exchange    time.Duration
	publishK    int
	maxTime     time.Duration
	run         core.RunSpec
	addr        string
	obs         obsflags.Config
}

func main() {
	var cfg config
	flag.StringVar(&cfg.coordinator, "coordinator", "", "coordinator base URL (required), e.g. http://host:8080")
	flag.StringVar(&cfg.id, "id", "", "stable worker identity for re-registration (default: coordinator-assigned)")
	flag.IntVar(&cfg.devices, "devices", 1, "simulated devices this worker contributes")
	flag.IntVar(&cfg.sms, "sms", 2, "SMs per simulated device (0 = full RTX 2080 Ti)")
	flag.DurationVar(&cfg.exchange, "exchange", 200*time.Millisecond, "publish/lease exchange cadence")
	flag.IntVar(&cfg.publishK, "publish-k", 8, "best local solutions shipped per exchange")
	flag.DurationVar(&cfg.maxTime, "max-time", 24*time.Hour, "local backstop budget for an orphaned worker")
	cfg.run.Flags(flag.CommandLine, "unset or auto defers to the coordinator's grant, then the default; a set value wins over the grant")
	flag.StringVar(&cfg.addr, "addr", "", "health/metrics listen address (empty = no listener)")
	cfg.obs.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abs-worker:", err)
		// Exit 2 distinguishes a permanent failure (rejected
		// registration, corrupt grant — restarting won't help, an
		// operator must look) from transient ones; process supervisors
		// can key restart policy off it.
		if cluster.Permanent(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run drives one worker lifecycle; split from main so tests can run a
// whole worker in-process.
func run(ctx context.Context, cfg config, out *os.File) error {
	if cfg.coordinator == "" {
		return fmt.Errorf("no coordinator given (-coordinator http://host:8080)")
	}
	var device gpusim.DeviceSpec
	if cfg.sms == 0 {
		device = gpusim.TuringRTX2080Ti()
	} else {
		device = gpusim.ScaledCPU(cfg.sms)
	}
	// The worker's registry and tracer always exist — the -addr health
	// listener re-exposes them — and the shared -metrics-addr /
	// -trace-out plane adds a dedicated endpoint and a JSONL sink on
	// top when asked.
	cfg.obs.AlwaysOn = true
	cfg.obs.Ring = 1 << 12
	obs, err := cfg.obs.Open()
	if err != nil {
		return err
	}
	defer obs.Close()
	reg, tr := obs.Registry, obs.Tracer
	if addr := obs.Addr(); addr != "" {
		fmt.Fprintf(out, "abs-worker: telemetry on http://%s/metrics\n", addr)
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Transport:   cluster.NewHTTPTransport(cfg.coordinator, nil),
		WorkerID:    cfg.id,
		Devices:     cfg.devices,
		Device:      device,
		Exchange:    cfg.exchange,
		PublishK:    cfg.publishK,
		MaxDuration: cfg.maxTime,
		Run:         cfg.run,
		Registry:    reg,
		Tracer:      tr,
	})
	if err != nil {
		return err
	}

	if cfg.addr != "" {
		mux := http.NewServeMux()
		health.Register(mux, w.Ready)
		mux.Handle("/", telemetry.NewHandler(reg, tr))
		ln, err := net.Listen("tcp", cfg.addr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(out, "abs-worker: health/metrics on http://%s\n", ln.Addr())
	}

	fmt.Fprintf(out, "abs-worker: joining %s with %d simulated device(s)\n", cfg.coordinator, cfg.devices)
	report, err := w.Run(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "abs-worker: %s done (coordinator done: %v, %d exchanges, %d heartbeats, %d reconnects)\n",
		report.WorkerID, report.CoordinatorDone, report.Exchanges, report.Heartbeats, report.Reconnects)
	if res := report.Result; res != nil {
		fmt.Fprintf(out, "abs-worker: local best %d after %d flips in %.1fs\n",
			res.BestEnergy, res.Flips, res.Elapsed.Seconds())
	}
	return nil
}
