GO ?= go

# Build identity, stamped into internal/telemetry and surfaced as the
# abs_build_info gauge on every /metrics endpoint. Overridable so
# release pipelines can pin an exact version string.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse HEAD 2>/dev/null || echo unknown)
LDFLAGS  = -X abs/internal/telemetry.version=$(VERSION) -X abs/internal/telemetry.commit=$(COMMIT)

.PHONY: build test vet race check ci bench bench-dense obs-demo obs-smoke backend-smoke diversity-smoke serve apicheck cluster-demo

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 30m ./...

# The standard gate: everything a change must pass before it lands.
check:
	./scripts/check.sh

# The CI short lane, exactly as .github/workflows/ci.yml runs it:
# both vet flavours, both builds, the API-surface and dead-package
# gates, the -short test suite, and the benchmark module's tests. `make check` remains
# the full gate (-race, cluster e2e).
ci:
	$(GO) vet ./...
	$(GO) vet -tags abstelemetryoff ./...
	$(GO) build ./...
	$(GO) build -tags abstelemetryoff ./...
	sh scripts/apicheck.sh
	sh scripts/deadpkg.sh
	$(GO) test -short ./...
	cd perfbench && $(GO) test ./...

# API-surface gate alone; APICHECK_UPDATE=1 make apicheck regenerates
# the snapshot after an intentional change.
apicheck:
	sh scripts/apicheck.sh

# Long-lived HTTP solver service on a small simulated fleet.
serve:
	$(GO) run ./cmd/abs-serve -gpus 2 -sms 2

bench:
	$(GO) run ./cmd/abs-bench -all -scale quick

# Scalar-vs-batched dense-kernel report with the ≥2× gate, exactly as
# CI's bench-smoke lane runs it (BENCH_pr10.json is the committed
# medium-scale run with the ≥3× bar).
bench-dense:
	$(GO) run ./cmd/abs-bench -dense-report bench-dense.json -assert-dense-ratio 2 -scale quick

# Observability demo: a short solve with the live telemetry endpoint
# up, scraped once mid-run with curl. Needs nothing beyond the Go
# toolchain and curl.
# Multi-node demo on loopback: one coordinator, two workers, a status
# scrape mid-run. The coordinator lingers briefly after the budget so
# the workers can flush their final publications and exit on their own.
cluster-demo:
	$(GO) build -o /tmp/abs-serve ./cmd/abs-serve
	$(GO) build -o /tmp/abs-worker ./cmd/abs-worker
	/tmp/abs-serve -coordinator -random-n 256 -seed 42 -time 8s \
		-addr 127.0.0.1:8081 & \
	sleep 1 && \
	/tmp/abs-worker -coordinator http://127.0.0.1:8081 -id node-a -sms 1 & \
	/tmp/abs-worker -coordinator http://127.0.0.1:8081 -id node-b -sms 1 & \
	sleep 5 && \
	echo "--- /v1/cluster/status ---" && \
	curl -sf http://127.0.0.1:8081/v1/cluster/status && echo && \
	echo "--- waiting for the run to finish ---" && \
	wait

# Observability smoke: boots abs-serve, runs one job, and asserts the
# operator surface end to end — build info and latency histograms on
# /metrics, a parseable causal trace at /v1/jobs/{id}/trace. CI runs
# this in the short lane.
obs-smoke:
	./scripts/obs-smoke.sh

# Solver-backend smoke: boots abs-serve with the race meta-backend,
# asserts /v1/backends, a race-pinned job, the 400 on unknown names and
# the per-backend ingest counters on /metrics. CI runs this in the
# short lane.
backend-smoke:
	./scripts/backend-smoke.sh

# Diversity smoke: boots abs-serve with the race backend under a DABS
# spec and asserts the abs_alloc_units gauges move (the adaptive
# allocator reassigns units) and the pool occupies >= 2 distance
# buckets. CI runs this in the short lane.
diversity-smoke:
	./scripts/diversity-smoke.sh

obs-demo:
	$(GO) build -o /tmp/abs-solve ./cmd/abs-solve
	$(GO) run ./cmd/qubogen -kind random -n 512 -seed 42 -out /tmp/obs-demo.qubo
	/tmp/abs-solve -file /tmp/obs-demo.qubo -time 6s -gpus 2 \
		-metrics-addr 127.0.0.1:9090 -trace-out /tmp/obs-demo-trace.jsonl -v & \
	sleep 3 && \
	echo "--- /metrics scrape ---" && \
	curl -sf http://127.0.0.1:9090/metrics | grep -E '^abs_' | head -25 && \
	echo "--- waiting for solve to finish ---" && \
	wait
	@echo "trace events: $$(wc -l < /tmp/obs-demo-trace.jsonl) (JSONL at /tmp/obs-demo-trace.jsonl)"
