#!/bin/sh
# Diversity smoke: boot abs-serve with the race meta-backend and a DABS
# admission spec and assert the diversity surface end to end —
#   * the distance-bucketed pool reports at least 2 occupied buckets
#     (abs_pool_distance_buckets_occupied >= 2);
#   * GET /v1/backends shows the running race job split between
#     straight and tabu (g mod 2), and the two counts sum to the job's
#     units (its result's "blocks").
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
	echo "diversity-smoke: FAIL: $*" >&2
	if [ -s "$TMP/serve.log" ]; then
		echo "--- abs-serve log ---" >&2
		cat "$TMP/serve.log" >&2
	fi
	if [ -s "$TMP/metrics.prom" ]; then
		echo "--- last /metrics (abs_pool_*) ---" >&2
		grep -E '^abs_pool_' "$TMP/metrics.prom" >&2 || true
	fi
	exit 1
}

echo "diversity-smoke: building abs-serve"
$GO build -o "$TMP/abs-serve" ./cmd/abs-serve

# Radius 2 turns the Hamming admission policy on for every job.
"$TMP/abs-serve" -addr 127.0.0.1:0 -gpus 2 -sms 2 -backend race \
	-diversity "radius=2" \
	>"$TMP/serve.log" 2>&1 &
SRV_PID=$!

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
echo "diversity-smoke: abs-serve on $BASE (race + DABS spec)"

SUBMIT=$(curl -sf -X POST "http://$BASE/v1/jobs" \
	-d '{"random": {"n": 64, "seed": 7}, "time": "20s", "backend": "race", "name": "diversity-smoke"}') ||
	fail "job submit"
ID=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":[[:space:]]*"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || fail "submit reply has no job id: $SUBMIT"
echo "diversity-smoke: job $ID running"

# units NAME prints NAME's unit count from the /v1/backends body in $LIST.
units() {
	printf '%s' "$LIST" | tr -d '\n' | tr '{' '\n' |
		sed -n "s/.*\"name\":[[:space:]]*\"$1\".*\"units\":[[:space:]]*\([0-9]*\).*/\1/p"
}

# Poll until every assertion holds (or time out at ~15s).
SPLIT_OK=
BUCKETS_OK=
i=0
while [ $i -lt 50 ]; do
	# The race job's units land on its members, never on race itself.
	if [ -z "$SPLIT_OK" ]; then
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
			echo "diversity-smoke: race split straight=$STRAIGHT tabu=$TABU"
		fi
	fi

	# The distance-bucketed pool keeps spread: >= 2 occupied buckets.
	if [ -z "$BUCKETS_OK" ]; then
		curl -sf "http://$BASE/metrics" >"$TMP/metrics.prom" || fail "/metrics scrape"
		BUCKETS=$(awk -F' ' '/^abs_pool_distance_buckets_occupied / { print int($2) }' "$TMP/metrics.prom")
		if [ "${BUCKETS:-0}" -ge 2 ]; then
			BUCKETS_OK=1
			echo "diversity-smoke: pool occupies $BUCKETS distance buckets"
		fi
	fi

	[ -n "$SPLIT_OK" ] && [ -n "$BUCKETS_OK" ] && break
	sleep 0.3
	i=$((i + 1))
done
[ -n "$SPLIT_OK" ] || fail "GET /v1/backends never showed the race job split across straight and tabu"
[ -n "$BUCKETS_OK" ] || fail "abs_pool_distance_buckets_occupied never reached 2"

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

kill "$SRV_PID" 2>/dev/null || true
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
echo "diversity-smoke: PASS"
