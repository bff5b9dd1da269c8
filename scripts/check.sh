#!/bin/sh
# Standard development gate: vet + build + full test suite under the
# race detector. Run from anywhere; exits non-zero on first failure.
set -eu
cd "$(dirname "$0")/.."

# Guard: the cd above must have landed at the repository root. When it
# did not (symlinked or copied script, exotic $0), every later step
# would fail with a confusing Go error; fail fast and say why instead.
if ! grep -q '^module abs$' go.mod 2>/dev/null; then
	echo "$(basename "$0"): must run from the abs repository root (go.mod with 'module abs' not found in $(pwd))" >&2
	echo "$(basename "$0"): invoke as scripts/$(basename "$0") from the checkout root" >&2
	exit 2
fi

echo "== go vet =="
go vet ./...

echo "== go vet (telemetry off) =="
# The abstelemetryoff tag compiles telemetry.Enabled to false so the
# instrumentation dead-codes away; both build flavours must stay clean.
go vet -tags abstelemetryoff ./...

echo "== go build =="
go build ./...

echo "== go build (telemetry off) =="
go build -tags abstelemetryoff ./...

echo "== api surface =="
sh scripts/apicheck.sh

echo "== dead packages =="
sh scripts/deadpkg.sh

echo "== go test -race =="
# Generous timeout: the paper-shape bench tests launch thousands of
# block goroutines, which race instrumentation slows considerably on
# small machines.
go test -race -timeout 30m ./...

echo "== cluster loopback e2e (-race) =="
# The multi-node acceptance run: coordinator + two HTTP workers over
# loopback, one partitioned mid-run. Part of ./... above; repeated
# here by name so a regression in the distributed path fails loudly
# under its own heading.
go test -race -timeout 10m -count=1 -run 'TestClusterLoopbackE2E' ./internal/cluster/

echo "check.sh: all green"
