#!/usr/bin/env bash
# fleet-smoke: end-to-end check of the distributed worker fleet.
#
# 1. Run a tiny sweep in process (`sparkxd sweep -json`) as the oracle.
# 2. Start a coordinator (`sparkxd serve -dispatch fleet`) over a
#    filesystem store with a short lease TTL.
# 3. Join worker 1, submit the sweep job, and kill -9 the worker as
#    soon as it holds the job — a real crash, mid-lease.
# 4. Join worker 2: the expired lease requeues the job (crashed worker
#    excluded) and worker 2 completes it.
# 5. `cmp` the fetched artifact payload against the in-process report:
#    the re-executed job must reproduce the direct run byte for byte.
#    The roster must list worker 2 with its slots: workers join it by
#    asking for leases.
# 6. Drain the coordinator (SIGTERM), restart it on the same store with
#    no workers at all, resubmit the same spec — the job must be served
#    `done` instantly from the persisted job record, and the artifact
#    must still `cmp` clean.
set -euo pipefail

workdir="$(mktemp -d)"
server_pid=""
worker1_pid=""
worker2_pid=""
cleanup() {
	for pid in "$worker1_pid" "$worker2_pid" "$server_pid"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	rm -rf "$workdir"
}
trap cleanup EXIT

echo "fleet-smoke: building sparkxd"
go build -o "$workdir/sparkxd" ./cmd/sparkxd

tiny=(-neurons 40 -train 60 -test 30 -epochs 1)
grid=(-voltages 1.1 -bers 1e-5,1e-4 -models uniform -policies sparkxd)

echo "fleet-smoke: in-process sweep (oracle)"
"$workdir/sparkxd" sweep "${tiny[@]}" "${grid[@]}" -workers 2 -json -quiet \
	> "$workdir/direct.json"

start_server() {
	"$workdir/sparkxd" serve -addr 127.0.0.1:0 -store "$workdir/store" \
		-dispatch fleet -lease-ttl 2s -drain-timeout 10s -workers 2 \
		> "$workdir/serve.out" 2> "$workdir/serve.err" &
	server_pid=$!
	addr=""
	for _ in $(seq 1 50); do
		addr="$(awk '/^listening on /{print $3}' "$workdir/serve.out" 2>/dev/null || true)"
		[ -n "$addr" ] && break
		sleep 0.2
	done
	if [ -z "$addr" ]; then
		echo "fleet-smoke: coordinator did not report an address" >&2
		cat "$workdir/serve.err" >&2 || true
		exit 1
	fi
}

start_server
echo "fleet-smoke: coordinator at $addr"

cat > "$workdir/spec.json" <<'SPEC'
{
  "kind": "sweep",
  "config": {
    "neurons": 40,
    "dataset": "mnist",
    "train_samples": 60,
    "test_samples": 30,
    "base_epochs": 1
  },
  "sweep": {
    "voltages": [1.1],
    "bers": [1e-5, 1e-4],
    "error_models": ["uniform"],
    "policies": ["sparkxd"]
  }
}
SPEC

echo "fleet-smoke: joining worker 1 (the one we will crash)"
"$workdir/sparkxd" worker -join "$addr" -workers 2 -name smoke-w1 -poll 100ms \
	> /dev/null 2> "$workdir/worker1.err" &
worker1_pid=$!

id="$("$workdir/sparkxd" job submit -addr "$addr" -spec "$workdir/spec.json" -id-only)"
echo "fleet-smoke: job id $id"

# Wait until worker 1 holds the lease, then crash it hard.
for _ in $(seq 1 100); do
	state="$("$workdir/sparkxd" job status -addr "$addr" -id "$id" \
		| sed -n 's/.*"state": "\([a-z]*\)".*/\1/p' | head -1)"
	[ "$state" = "running" ] && break
	[ "$state" = "done" ] && break
	sleep 0.1
done
if [ "$state" = "running" ]; then
	echo "fleet-smoke: killing worker 1 mid-job (kill -9)"
	kill -9 "$worker1_pid" 2>/dev/null || true
	wait "$worker1_pid" 2>/dev/null || true
	worker1_pid=""
else
	echo "fleet-smoke: job already $state before the crash window (machine too fast); continuing"
fi

echo "fleet-smoke: joining worker 2 (the one that finishes the job)"
"$workdir/sparkxd" worker -join "$addr" -workers 2 -name smoke-w2 -poll 100ms \
	> /dev/null 2> "$workdir/worker2.err" &
worker2_pid=$!

"$workdir/sparkxd" job wait -addr "$addr" -id "$id" -artifact sweep \
	> "$workdir/served.json"
cmp "$workdir/direct.json" "$workdir/served.json"
echo "fleet-smoke: fleet artifact is byte-identical to the in-process sweep"

curl -fsS "$addr/v1/workers" > "$workdir/workers.json"
if ! jq -e 'any(.[]; .name == "smoke-w2" and .slots == 2)' "$workdir/workers.json" > /dev/null; then
	echo "fleet-smoke: the roster does not list smoke-w2 with 2 slots:" >&2
	cat "$workdir/workers.json" >&2
	exit 1
fi
echo "fleet-smoke: the roster lists smoke-w2 with its 2 slots"

# The live coordinator must expose the fleet's activity on /metrics:
# lease grants and completed-job latency observations are both nonzero
# after the job above ran through a worker.
curl -fsS "$addr/metrics" > "$workdir/metrics.out"
for series in 'sparkxd_leases_total{op="grant"}' 'sparkxd_job_latency_seconds_count'; do
	if ! awk -v p="$series" 'index($0, p) == 1 && $NF + 0 > 0 { found = 1 }
		END { exit !found }' "$workdir/metrics.out"; then
		echo "fleet-smoke: /metrics has no nonzero series for $series:" >&2
		grep -F "${series%%\{*}" "$workdir/metrics.out" >&2 || true
		exit 1
	fi
done
echo "fleet-smoke: /metrics shows nonzero lease and job-latency series"

# The completed job must have an assembled distributed trace with spans
# from at least two processes (the coordinator and a worker), and the
# spans must nest: queue-wait and lease under the "job" root, the
# worker's execute envelope under a lease span, and at least one
# pipeline stage span under an execute span.
echo "fleet-smoke: fetching the job's distributed trace"
"$workdir/sparkxd" trace -addr "$addr" -json "$id" > "$workdir/trace.json"
"$workdir/sparkxd" trace -addr "$addr" "$id"
if ! jq -e '
	[.spans[] | select(.name == "job") | .span_id] as $roots |
	[.spans[] | select(.name == "lease") | .span_id] as $leases |
	[.spans[] | select(.name == "execute")
		| select([.parent_span_id] | inside($leases)) | .span_id] as $execs |
	((.spans | map(.process) | unique | length) >= 2) and
	(($roots | length) == 1) and
	(([.spans[] | select(.name == "queue-wait")
		| select([.parent_span_id] | inside($roots))] | length) >= 1) and
	(([.spans[] | select(.name == "lease")
		| select([.parent_span_id] | inside($roots))] | length) >= 1) and
	(($execs | length) >= 1) and
	(([.spans[] | select(.name | startswith("stage:"))
		| select([.parent_span_id] | inside($execs))] | length) >= 1)
' "$workdir/trace.json" > /dev/null; then
	echo "fleet-smoke: trace is missing multi-process or nested spans:" >&2
	cat "$workdir/trace.json" >&2
	exit 1
fi
echo "fleet-smoke: trace spans two processes with queue -> lease -> stage nesting"

echo "fleet-smoke: draining the coordinator and workers"
kill "$worker2_pid" 2>/dev/null || true
wait "$worker2_pid" 2>/dev/null || true
worker2_pid=""
kill -TERM "$server_pid"
wait "$server_pid" || true
server_pid=""

echo "fleet-smoke: restarting the coordinator on the same store (no workers)"
start_server
echo "fleet-smoke: coordinator back at $addr"

status="$("$workdir/sparkxd" job submit -addr "$addr" -spec "$workdir/spec.json")"
if ! echo "$status" | grep -q '"state": "done"'; then
	echo "fleet-smoke: resubmission was not served from the persisted job record:" >&2
	echo "$status" >&2
	exit 1
fi
"$workdir/sparkxd" job wait -addr "$addr" -id "$id" -artifact sweep \
	> "$workdir/cached.json"
cmp "$workdir/direct.json" "$workdir/cached.json"
echo "fleet-smoke: restart served the job from the durable record, byte-identical"

# The trace key rides the durable job record, so the replacement
# coordinator still serves the trace assembled before the restart.
"$workdir/sparkxd" trace -addr "$addr" -json "$id" \
	| jq -e --arg id "$id" '.job_id == $id and (.spans | length) > 0' > /dev/null
echo "fleet-smoke: restarted coordinator still serves the persisted trace"
