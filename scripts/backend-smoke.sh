#!/bin/sh
# Backend smoke: boot abs-serve with the race meta-backend as the
# service default and assert the solver-backend surface end to end —
#   * GET /v1/backends lists exactly the registered backends
#     (straight, tabu, race);
#   * a job that names "backend": "race" runs and reports backend
#     "race" in its result;
#   * a bogus backend name is a 400 whose body lists the registry;
#   * /metrics carries the per-backend abs_backend_* ingest counters;
#   * GET /v1/backends shows a running race job split between straight
#     and tabu (g mod 2), and the two counts sum to the job's units
#     (its result's "blocks").
# Needs only the Go toolchain and curl.
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

GO=${GO:-go}

TMP=$(mktemp -d)
SRV_PID=
cleanup() {
	[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
	echo "backend-smoke: FAIL: $*" >&2
	if [ -s "$TMP/serve.log" ]; then
		echo "--- abs-serve log ---" >&2
		cat "$TMP/serve.log" >&2
	fi
	exit 1
}

echo "backend-smoke: building abs-serve"
$GO build -o "$TMP/abs-serve" ./cmd/abs-serve

"$TMP/abs-serve" -addr 127.0.0.1:0 -gpus 1 -sms 1 -backend race >"$TMP/serve.log" 2>&1 &
SRV_PID=$!

# The service binds an ephemeral port; read it off the listen line.
BASE=
i=0
while [ $i -lt 50 ]; do
	BASE=$(sed -n 's#.*listening on http://\([^/]*\)/v1/jobs.*#\1#p' "$TMP/serve.log" | head -1)
	[ -n "$BASE" ] && break
	kill -0 "$SRV_PID" 2>/dev/null || fail "abs-serve exited before listening"
	sleep 0.2
	i=$((i + 1))
done
[ -n "$BASE" ] || fail "no listen address after 10s"
echo "backend-smoke: abs-serve on $BASE (default backend: race)"

# The registry listing.
LIST=$(curl -sf "http://$BASE/v1/backends") || fail "GET /v1/backends"
for want in straight tabu race; do
	printf '%s' "$LIST" | grep -q "\"name\":[[:space:]]*\"$want\"" ||
		fail "/v1/backends missing \"$want\": $LIST"
done
NAMES=$(printf '%s' "$LIST" | grep -c '"name":' || true)
[ "$NAMES" -eq 3 ] || fail "/v1/backends lists $NAMES backends, want 3: $LIST"
echo "backend-smoke: /v1/backends lists the registry"

# A job pinned to the race meta-backend.
SUBMIT=$(curl -sf -X POST "http://$BASE/v1/jobs" \
	-d '{"random": {"n": 32, "seed": 7}, "max_flips": 200000, "backend": "race", "name": "backend-smoke"}') ||
	fail "job submit"
ID=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":[[:space:]]*"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || fail "submit reply has no job id: $SUBMIT"

STATE=
i=0
while [ $i -lt 150 ]; do
	STATE=$(curl -sf "http://$BASE/v1/jobs/$ID" | sed -n 's/.*"state":[[:space:]]*"\([^"]*\)".*/\1/p')
	[ "$STATE" = done ] && break
	[ "$STATE" = failed ] && fail "job failed"
	sleep 0.2
	i=$((i + 1))
done
[ "$STATE" = done ] || fail "job still '$STATE' after 30s"

FINAL=$(curl -sf "http://$BASE/v1/jobs/$ID") || fail "final job fetch"
printf '%s' "$FINAL" | grep -q '"backend":[[:space:]]*"race"' ||
	fail "result does not report backend \"race\": $FINAL"
echo "backend-smoke: job $ID done on the race backend"

# An unknown backend is a 400 that lists the registry.
CODE=$(curl -s -o "$TMP/bad.json" -w '%{http_code}' -X POST "http://$BASE/v1/jobs" \
	-d '{"random": {"n": 32, "seed": 7}, "max_flips": 1000, "backend": "columnar"}')
[ "$CODE" = 400 ] || fail "unknown backend returned HTTP $CODE, want 400"
for want in straight tabu race; do
	grep -q "$want" "$TMP/bad.json" ||
		fail "400 body does not list \"$want\": $(cat "$TMP/bad.json")"
done
echo "backend-smoke: unknown backend rejected with the registry listed"

# The per-backend ingest counters on /metrics.
curl -sf "http://$BASE/metrics" >"$TMP/metrics.prom" || fail "/metrics scrape"
grep -q '^abs_backend_inserted_total{backend=' "$TMP/metrics.prom" ||
	fail "/metrics missing abs_backend_inserted_total series"
grep -q '^abs_backend_improvements_total{backend=' "$TMP/metrics.prom" ||
	fail "/metrics missing abs_backend_improvements_total series"
echo "backend-smoke: metrics ok ($(grep -c '^abs_backend_' "$TMP/metrics.prom") abs_backend_* samples)"

# A long race job: while it runs, its units land on the members, never
# on race itself.
SUBMIT=$(curl -sf -X POST "http://$BASE/v1/jobs" \
	-d '{"random": {"n": 64, "seed": 7}, "time": "20s", "backend": "race", "name": "backend-smoke-split"}') ||
	fail "split job submit"
ID=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":[[:space:]]*"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || fail "submit reply has no job id: $SUBMIT"

# units NAME prints NAME's unit count from the /v1/backends body in $LIST.
units() {
	printf '%s' "$LIST" | tr -d '\n' | tr '{' '\n' |
		sed -n "s/.*\"name\":[[:space:]]*\"$1\".*\"units\":[[:space:]]*\([0-9]*\).*/\1/p"
}

SPLIT_OK=
i=0
while [ $i -lt 50 ]; do
	LIST=$(curl -sf "http://$BASE/v1/backends") || fail "GET /v1/backends"
	STRAIGHT=$(units straight)
	TABU=$(units tabu)
	RACE=$(units race)
	if [ "${STRAIGHT:-0}" -gt 0 ] && [ "${TABU:-0}" -gt 0 ]; then
		[ "${RACE:-0}" -eq 0 ] || fail "race itself holds $RACE units: $LIST"
		DIFF=$((STRAIGHT - TABU))
		[ "$DIFF" -eq 0 ] || [ "$DIFF" -eq 1 ] ||
			fail "split straight=$STRAIGHT tabu=$TABU is not g mod 2: $LIST"
		SPLIT_OK=1
		break
	fi
	sleep 0.3
	i=$((i + 1))
done
[ -n "$SPLIT_OK" ] || fail "GET /v1/backends never showed the race job split across straight and tabu"
echo "backend-smoke: race split straight=$STRAIGHT tabu=$TABU"

# The job is still within budget: cancel it, then check the split
# covered every unit it ran.
curl -sf -X DELETE "http://$BASE/v1/jobs/$ID" >/dev/null || fail "job cancel"
BLOCKS=
i=0
while [ $i -lt 50 ]; do
	BLOCKS=$(curl -sf "http://$BASE/v1/jobs/$ID" | sed -n 's/.*"blocks":[[:space:]]*\([0-9]*\).*/\1/p')
	[ -n "$BLOCKS" ] && break
	sleep 0.2
	i=$((i + 1))
done
[ -n "$BLOCKS" ] || fail "cancelled job never reported its blocks"
[ $((STRAIGHT + TABU)) -eq "$BLOCKS" ] ||
	fail "split straight=$STRAIGHT + tabu=$TABU != job units $BLOCKS"
echo "backend-smoke: split covers all $BLOCKS units"

kill "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
echo "backend-smoke: PASS"
