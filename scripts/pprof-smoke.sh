#!/usr/bin/env bash
# pprof-smoke: the serving binaries' diagnostics surfaces.
#
# 1. Start `sparkxd serve -debug-addr`, `sparkxd worker -debug-addr`,
#    and `sparkxd store serve -debug-addr`, each with the debug listener
#    on a random port.
# 2. Hit every debug listener: the pprof index, a heap profile, and the
#    /debug/vars runtime snapshot (goroutine count must be positive and
#    the version string present).
# 3. Submit a tiny job and assert the coordinator's stderr carries
#    structured JSON log lines keyed by the job ID — the slog pipeline,
#    end to end.
set -euo pipefail

workdir="$(mktemp -d)"
server_pid=""
worker_pid=""
store_pid=""
cleanup() {
	for pid in "$worker_pid" "$store_pid" "$server_pid"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	rm -rf "$workdir"
}
trap cleanup EXIT

echo "pprof-smoke: building sparkxd"
go build -o "$workdir/sparkxd" ./cmd/sparkxd

# wait_line FILE PREFIX -> the first line starting with PREFIX, polled.
wait_line() {
	local file="$1" prefix="$2" line=""
	for _ in $(seq 1 50); do
		line="$(grep -m1 "^$prefix" "$file" 2>/dev/null || true)"
		[ -n "$line" ] && break
		sleep 0.2
	done
	if [ -z "$line" ]; then
		echo "pprof-smoke: no \"$prefix\" line in $file" >&2
		cat "$file" >&2 || true
		exit 1
	fi
	echo "$line"
}

echo "pprof-smoke: starting coordinator, worker, and store server with debug listeners"
"$workdir/sparkxd" serve -addr 127.0.0.1:0 -workers 2 \
	-debug-addr 127.0.0.1:0 \
	> "$workdir/serve.out" 2> "$workdir/serve.err" &
server_pid=$!
addr="$(wait_line "$workdir/serve.out" "listening on " | awk '{print $3}')"
serve_debug="$(wait_line "$workdir/serve.out" "debug on " | awk '{print $3}')"

"$workdir/sparkxd" worker -join "$addr" -workers 1 -name pprof-w1 \
	-debug-addr 127.0.0.1:0 \
	> "$workdir/worker.out" 2> "$workdir/worker.err" &
worker_pid=$!
worker_debug="$(wait_line "$workdir/worker.out" "debug on " | awk '{print $3}')"

"$workdir/sparkxd" store serve -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 \
	> "$workdir/store.out" 2> "$workdir/store.err" &
store_pid=$!
store_debug="$(wait_line "$workdir/store.out" "debug on " | awk '{print $3}')"

for debug in "$serve_debug" "$worker_debug" "$store_debug"; do
	base="${debug%/debug/pprof/}"
	echo "pprof-smoke: probing $base"
	curl -fsS "$base/debug/pprof/" > /dev/null
	curl -fsS "$base/debug/pprof/heap?debug=1" | head -1 | grep -q "heap profile"
	curl -fsS "$base/debug/vars" > "$workdir/vars.json"
	jq -e '(.goroutines > 0) and (.version | length > 0) and (.heap_alloc > 0)' \
		"$workdir/vars.json" > /dev/null
done
echo "pprof-smoke: all three debug listeners serve pprof and runtime vars"

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
    "bers": [1e-5],
    "error_models": ["uniform"],
    "policies": ["sparkxd"]
  }
}
SPEC
id="$("$workdir/sparkxd" job submit -addr "$addr" -spec "$workdir/spec.json" -id-only)"
"$workdir/sparkxd" job wait -addr "$addr" -id "$id" > /dev/null
echo "pprof-smoke: job $id done"

# Structured logging: the coordinator's stderr is JSON lines, and the
# job's lifecycle lines carry the job ID as an attribute.
if ! grep -q '"job":"'"$id"'"' "$workdir/serve.err"; then
	echo "pprof-smoke: no structured log line keyed by the job ID:" >&2
	cat "$workdir/serve.err" >&2
	exit 1
fi
head -1 "$workdir/serve.err" | jq -e '.time and .level and .msg' > /dev/null
echo "pprof-smoke: coordinator logs structured JSON keyed by job ID"

# `sparkxd version` prints the same version /v1/healthz reports.
cli_version="$("$workdir/sparkxd" version | awk '{$1=""; sub(/^ /,""); print}')"
hz_version="$(curl -fsS "$addr/v1/healthz" | jq -r '.version')"
if [ "$cli_version" != "$hz_version" ]; then
	echo "pprof-smoke: version mismatch: CLI \"$cli_version\" vs healthz \"$hz_version\"" >&2
	exit 1
fi
echo "pprof-smoke: CLI and healthz agree on version $hz_version"
