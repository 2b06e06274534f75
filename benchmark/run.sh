#!/usr/bin/env bash
# Builds evbench from this checkout and serves one workload, or every
# workload when --workload is not given. For each workload it prints the
# full result document (every metric with its unit, the operations
# ledger, the gates and the trace path), then one line with the result
# object; the last line of stdout is the result object of the last
# workload. Build logs and progress go to stderr. Everything built or
# written stays under .bench_build/.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
#                    [--out F]
#   benchmark/run.sh --smoke
#
# --out F    where the result document goes (default
#            .bench_build/results/<workload>-seed<S>-trace<0|1>.json)
# --smoke    every workload at 1/10 length, traced, checking each result
#            line and document against BENCHMARK.json and the gates
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=".bench_build"
results="$build/results"

workload=""
seed=1
seconds=20
trace=0
out=""
smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Compiler and tool temporary files stay inside the checkout too.
mkdir -p "$build/tmp" "$results"
export TMPDIR="$root/$build/tmp"

targets=(evbench)
if [[ "$trace" == 1 || "$smoke" == 1 ]]; then targets+=(evedge_trace); fi
if [[ ! -f "$build/Makefile" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DFETCHCONTENT_FULLY_DISCONNECTED=ON >&2
fi
cmake --build "$build" --target "${targets[@]}" -j "$(nproc)" >&2

all_workloads=(dotie-4cam spikenet-4cam flownet-2cam spikenet-2cam-bursty)

# Serves one workload; $1 workload, $2 trace flag, $3 result document,
# remaining arguments pass through to evbench. Prints the document, then
# the result line; returns evbench's status.
serve_one() {
  local w="$1" t="$2" doc="$3"
  shift 3
  local tracefile="$results/$w-seed$seed.trace.json"
  local line status=0
  rm -f "$doc"
  line="$("$build/evbench" --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace "$t" --out "$doc" \
    --trace-file "$tracefile" "$@")" || status=$?
  if [[ "$status" == 0 && "$t" == 1 ]]; then
    # The trace must load in the repository's own trace tool.
    "$build/evedge/evedge_trace" summarize "$tracefile" >&2 || status=$?
  fi
  if [[ -f "$doc" ]]; then cat "$doc"; fi
  if [[ -n "$line" ]]; then printf '%s\n' "$line"; fi
  return "$status"
}

if [[ "$smoke" == 1 ]]; then
  seconds=2
  for w in "${all_workloads[@]}"; do
    doc="$results/smoke-$w.json"
    serve_one "$w" 1 "$doc" --smoke > "$results/smoke-$w.out"
    python3 - "$doc" "$results/smoke-$w.out" <<'EOF'
import json, sys
spec = json.load(open("BENCHMARK.json"))
doc = json.load(open(sys.argv[1]))
line = json.loads(open(sys.argv[2]).read().strip().splitlines()[-1])
assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
want = {m["name"]: m["unit"] for m in spec["per_layer"]}
assert {k: v["unit"] for k, v in line["metrics"].items()} == want, "per-layer names/units"
for m in spec["end_to_end"]:
    assert doc["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    assert doc["metrics"][m["name"]]["value"] > 0, m["name"]
assert doc["frames_lost"] == 0 and doc["metrics"]["parity_mismatches"]["value"] == 0
assert doc["frames_enqueued"] == line["attempted"] and doc["trace_path"]
print(f"smoke {doc['workload']}: ok ({line['attempted']} frames)", file=sys.stderr)
EOF
  done
  echo '{"smoke": "ok"}'
  exit 0
fi

if [[ -n "$workload" ]]; then
  serve_one "$workload" "$trace" "${out:-$results/$workload-seed$seed-trace$trace.json}"
else
  for w in "${all_workloads[@]}"; do
    serve_one "$w" "$trace" "$results/$w-seed$seed-trace$trace.json"
  done
fi
