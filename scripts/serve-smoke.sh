#!/usr/bin/env bash
# serve-smoke: end-to-end determinism check of the sparkxd job service.
#
# 1. Run a tiny sweep in process (`sparkxd sweep -json`).
# 2. Start `sparkxd serve` on a random port over a filesystem store.
# 3. Submit the same sweep as a job through the Go client — twice, and
#    require both submissions to return the same deterministic job ID.
# 4. Poll the job to completion and fetch the sweep artifact payload.
# 5. `cmp` the fetched payload against the in-process report: the job
#    service must reproduce the direct run byte for byte.
# 6. Fetch the job's trace: a locally executed job has the one lease
#    shape, job -> queue-wait + lease -> execute -> stage:*.
# 7. Submit a grid the sweep would refuse (BER 0.7): submission answers
#    400 and creates no job.
set -euo pipefail

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT

echo "serve-smoke: building sparkxd"
go build -o "$workdir/sparkxd" ./cmd/sparkxd

tiny=(-neurons 40 -train 60 -test 30 -epochs 1)
grid=(-voltages 1.1 -bers 1e-5,1e-4 -models uniform -policies sparkxd)

echo "serve-smoke: in-process sweep"
"$workdir/sparkxd" sweep "${tiny[@]}" "${grid[@]}" -workers 2 -json -quiet \
	> "$workdir/direct.json"

echo "serve-smoke: starting job server"
"$workdir/sparkxd" serve -addr 127.0.0.1:0 -store "$workdir/store" -workers 2 \
	> "$workdir/serve.out" 2> "$workdir/serve.err" &
server_pid=$!

addr=""
for _ in $(seq 1 50); do
	addr="$(awk '/^listening on /{print $3}' "$workdir/serve.out" 2>/dev/null || true)"
	[ -n "$addr" ] && break
	sleep 0.2
done
if [ -z "$addr" ]; then
	echo "serve-smoke: server did not report an address" >&2
	cat "$workdir/serve.err" >&2 || true
	exit 1
fi
echo "serve-smoke: server at $addr"

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

id1="$("$workdir/sparkxd" job submit -addr "$addr" -spec "$workdir/spec.json" -id-only)"
id2="$("$workdir/sparkxd" job submit -addr "$addr" -spec "$workdir/spec.json" -id-only)"
echo "serve-smoke: job id $id1"
if [ "$id1" != "$id2" ]; then
	echo "serve-smoke: resubmission changed the job ID ($id1 vs $id2)" >&2
	exit 1
fi

"$workdir/sparkxd" job wait -addr "$addr" -id "$id1" -artifact sweep \
	> "$workdir/served.json"

cmp "$workdir/direct.json" "$workdir/served.json"
echo "serve-smoke: served artifact is byte-identical to the in-process sweep"

"$workdir/sparkxd" trace -addr "$addr" -json "$id1" > "$workdir/trace.json"
if ! jq -e '
	[.spans[] | select(.name == "job") | .span_id] as $roots |
	[.spans[] | select(.name == "lease") | .span_id] as $leases |
	[.spans[] | select(.name == "execute")
		| select([.parent_span_id] | inside($leases)) | .span_id] as $execs |
	(($roots | length) == 1) and
	(([.spans[] | select(.name == "queue-wait")
		| select([.parent_span_id] | inside($roots))] | length) >= 1) and
	(([.spans[] | select(.name == "lease")
		| select([.parent_span_id] | inside($roots))] | length) >= 1) and
	(($execs | length) >= 1) and
	(([.spans[] | select(.name | startswith("stage:"))
		| select([.parent_span_id] | inside($execs))] | length) >= 1)
' "$workdir/trace.json" > /dev/null; then
	echo "serve-smoke: local job's trace lacks the job -> lease -> execute -> stage nesting:" >&2
	cat "$workdir/trace.json" >&2
	exit 1
fi
echo "serve-smoke: local job's trace nests job -> queue-wait + lease -> execute -> stage"

jobs_before="$(curl -fsS "$addr/v1/jobs" | jq length)"
code="$(curl -sS -o "$workdir/refused.json" -w '%{http_code}' -X POST \
	-H 'Content-Type: application/json' \
	-d '{"kind":"sweep","sweep":{"bers":[0.7]}}' "$addr/v1/jobs")"
if [ "$code" != 400 ]; then
	echo "serve-smoke: a BER-0.7 grid answered $code at submission, want 400:" >&2
	cat "$workdir/refused.json" >&2
	exit 1
fi
jobs_after="$(curl -fsS "$addr/v1/jobs" | jq length)"
if [ "$jobs_after" != "$jobs_before" ]; then
	echo "serve-smoke: the refused grid changed the job list ($jobs_before -> $jobs_after jobs)" >&2
	exit 1
fi
echo "serve-smoke: a grid the sweep would refuse is refused at submission (400, no job)"
