#!/usr/bin/env bash
# Serving loopback smoke: start dosc_serve on an ephemeral port with a fresh
# 2x32 policy, drive it with dosc_cli's open-loop load generator, stop it
# with TERM, and check that no request was lost or undecodable.
#
# Usage, from the repository root:
#   tests/serve_smoke.sh <build-dir> <rate req/s> <requests>
# Exits non-zero at the first failed check.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <build-dir> <rate> <requests>" >&2
  exit 2
fi
build=$1
rate=$2
requests=$3
scenario=scenarios/base_poisson_2in.json
work=$(mktemp -d)
serve_pid=
cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2> /dev/null; then
    kill -KILL "$serve_pid"
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: $*" >&2
  exit 1
}

"$build/examples/dosc_cli" init-policy "$scenario" "$work/policy.json" --hidden 32
"$build/examples/dosc_serve" "$scenario" "$work/policy.json" --duration 60 \
  > "$work/serve.log" 2> "$work/serve.err" &
serve_pid=$!

# The daemon announces its port within 10 s.
port=
for _ in $(seq 1 50); do
  port=$(grep -m1 '^PORT ' "$work/serve.log" | cut -d' ' -f2 || true)
  [ -n "$port" ] && break
  sleep 0.2
done
if [ -z "$port" ]; then
  cat "$work/serve.log" "$work/serve.err" >&2
  fail "no PORT line within 10 s"
fi

"$build/examples/dosc_cli" load "$scenario" --port "$port" --rate "$rate" \
  --requests "$requests" | tee "$work/load.log"

# The daemon exits after TERM.
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=
cat "$work/serve.log" "$work/serve.err"

grep -q "received $requests " "$work/load.log" ||
  fail "load generator did not receive all $requests replies"
grep -q ' 0 protocol errors,' "$work/serve.log" ||
  fail "server dropped undecodable datagrams"
echo "serve_smoke: $requests requests at $rate req/s, none lost"
