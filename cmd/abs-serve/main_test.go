package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"abs/internal/cluster"
	"abs/internal/gpusim"
	"abs/internal/serve"
)

// TestRunLifecycle boots the whole binary path — flags → service →
// listener — on an ephemeral port, hits the API once, and shuts down
// via context cancellation the way SIGINT does.
func TestRunLifecycle(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "abs-serve-out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	cfg := config{
		addr:        "127.0.0.1:0",
		gpus:        1,
		sms:         1,
		queueCap:    4,
		retain:      8,
		defaultTime: time.Second,
		maxTime:     time.Minute,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, out) }()

	// The bound address appears in the startup banner.
	addrRe := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)/v1/jobs`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && addr == "" {
		b, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if m := addrRe.FindStringSubmatch(string(b)); m != nil {
			addr = m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		cancel()
		t.Fatal("server never printed its address")
	}

	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json",
		strings.NewReader(`{"random": {"n": 32}, "time": "50ms"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit over the binary's listener: %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not shut down after cancellation")
	}
}

// TestCoordinatorModeLifecycle boots abs-serve -coordinator on an
// ephemeral port, joins it with a real in-process cluster worker, and
// lets the flip budget end the run: the server must return on its own
// (after the linger window) without ctx cancellation.
func TestCoordinatorModeLifecycle(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "abs-serve-out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	cfg := config{
		addr:        "127.0.0.1:0",
		coordinator: true,
		randomN:     48,
		seed:        3,
		maxFlips:    20_000,
		linger:      500 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, out) }()

	addrRe := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)/v1/cluster`)
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && addr == "" {
		b, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		if m := addrRe.FindStringSubmatch(string(b)); m != nil {
			addr = m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		cancel()
		t.Fatal("coordinator never printed its address")
	}

	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v, want 200", resp, err)
	} else {
		resp.Body.Close()
	}

	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Transport: cluster.NewHTTPTransport("http://"+addr, nil),
		Device:    gpusim.ScaledCPU(1),
		Exchange:  25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	if _, err := w.Run(ctx); err != nil {
		t.Fatalf("worker Run: %v", err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("coordinator run returned %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("coordinator did not exit on its own after the run finished")
	}
	b, _ := os.ReadFile(out.Name())
	if !strings.Contains(string(b), "best energy") {
		t.Errorf("coordinator exited without a run summary:\n%s", string(b))
	}
}

// TestRunRestartServesOldResults is the binary-level kill/restart
// walkthrough from the README: run abs-serve with -store, finish a job,
// kill the process, start a new one over the same directory, and the
// old job's result is still there — same ID, same answer, no 404.
func TestRunRestartServesOldResults(t *testing.T) {
	storeDir := t.TempDir()
	baseCfg := config{
		addr:        "127.0.0.1:0",
		gpus:        1,
		sms:         1,
		queueCap:    4,
		retain:      8,
		defaultTime: time.Second,
		maxTime:     time.Minute,
		storeDir:    storeDir,
	}
	addrRe := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)/v1/jobs`)

	boot := func() (addr string, cancel context.CancelFunc, done chan error) {
		out, err := os.CreateTemp(t.TempDir(), "abs-serve-out")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { out.Close() })
		ctx, cancel := context.WithCancel(context.Background())
		done = make(chan error, 1)
		go func() { done <- run(ctx, baseCfg, out) }()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) && addr == "" {
			b, _ := os.ReadFile(out.Name())
			if m := addrRe.FindStringSubmatch(string(b)); m != nil {
				addr = m[1]
			}
			time.Sleep(5 * time.Millisecond)
		}
		if addr == "" {
			cancel()
			t.Fatal("server never printed its address")
		}
		return addr, cancel, done
	}

	getJob := func(addr, id string) (int, jobDoc) {
		resp, err := http.Get("http://" + addr + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc jobDoc
		json.NewDecoder(resp.Body).Decode(&doc)
		return resp.StatusCode, doc
	}

	// Incarnation 1: run one job to completion.
	addr1, cancel1, done1 := boot()
	resp, err := http.Post("http://"+addr1+"/v1/jobs", "application/json",
		strings.NewReader(`{"random": {"n": 32, "seed": 5}, "max_flips": 2000}`))
	if err != nil {
		t.Fatal(err)
	}
	var submitted jobDoc
	json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit = %d %+v", resp.StatusCode, submitted)
	}
	var before jobDoc
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if _, doc := getJob(addr1, submitted.ID); doc.State == "done" {
			before = doc
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if before.State != "done" || before.Result == nil {
		t.Fatalf("job never finished in incarnation 1: %+v", before)
	}
	cancel1()
	if err := <-done1; err != nil {
		t.Fatalf("incarnation 1 exited with %v", err)
	}

	// Incarnation 2 over the same -store directory.
	addr2, cancel2, done2 := boot()
	defer func() {
		cancel2()
		<-done2
	}()
	code, after := getJob(addr2, submitted.ID)
	if code != http.StatusOK {
		t.Fatalf("GET %s after restart = %d, want 200", submitted.ID, code)
	}
	if after.State != "done" || after.Result == nil {
		t.Fatalf("restored job = %+v, want done with a result", after)
	}
	if after.Result.BestEnergy != before.Result.BestEnergy {
		t.Errorf("restored best = %d, want %d", after.Result.BestEnergy, before.Result.BestEnergy)
	}
}

// jobDoc is the slice of the job API document the restart test reads.
type jobDoc struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Result *struct {
		BestEnergy int64  `json:"best_energy"`
		Solution   string `json:"solution"`
	} `json:"result"`
}

// TestLoadProblemValidation covers the instance-source dispatch.
func TestLoadProblemValidation(t *testing.T) {
	if _, err := loadProblem(config{coordinator: true}); err == nil {
		t.Error("loadProblem accepted a config with no source")
	}
	if _, err := loadProblem(config{file: "x.qubo", randomN: 8}); err == nil {
		t.Error("loadProblem accepted both -file and -random-n")
	}
	if p, err := loadProblem(config{randomN: 24, seed: 9}); err != nil || p.N() != 24 {
		t.Errorf("loadProblem(random 24) = %v, %v", p, err)
	}
}

// TestStorageFlagReachesJobs: -storage is the service-wide storage in
// job mode, as it is the worker grant in coordinator mode. A sparse
// ring instance resolves to the sparse engine by default and to the
// dense one under -storage dense.
func TestStorageFlagReachesJobs(t *testing.T) {
	var ring strings.Builder
	const n = 64
	fmt.Fprintf(&ring, "p qubo %d %d\n", n, 2*n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&ring, "%d %d 1\n%d %d -2\n", i, i, min(i, (i+1)%n), max(i, (i+1)%n))
	}
	body, err := json.Marshal(map[string]any{"problem": ring.String(), "max_flips": 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "sparse"},
		{[]string{"-storage", "dense"}, "dense"},
	} {
		cfg := config{gpus: 1, sms: 1, queueCap: 4, retain: 8, defaultTime: time.Minute, maxTime: time.Minute}
		fs := flag.NewFlagSet("abs-serve", flag.ContinueOnError)
		cfg.run.Flags(fs, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		svc, reg, tr, err := newService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serve.NewHTTPHandler(svc, reg, tr))
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			ID     string `json:"id"`
			State  string `json:"state"`
			Result *struct {
				Storage string `json:"storage"`
			} `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%v: submit = %d, %v", tc.args, resp.StatusCode, err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for job.Result == nil && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID)
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		ts.Close()
		svc.Close()
		if job.Result == nil {
			t.Fatalf("%v: job %s never finished (state %s)", tc.args, job.ID, job.State)
		}
		if job.Result.Storage != tc.want {
			t.Errorf("%v: job ran on %s storage, want %s", tc.args, job.Result.Storage, tc.want)
		}
	}
}
