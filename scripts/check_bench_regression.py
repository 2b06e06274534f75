#!/usr/bin/env python3
"""Benchmark perf regression gate.

Compares a freshly produced benchmark JSON against the checked-in
baseline and fails (exit 1) when any record's speedup dropped by more
than the threshold. Speedup is a same-machine same-run ratio (reference
work / fast-path work), so it is largely machine-speed invariant — a
drop means the fast path itself regressed relative to the reference
work.

Six benchmark schemas are understood, auto-detected per record:

  BENCH_kernels.json / BENCH_quant.json
      records with kernel/shape/density and a single "speedup" metric
  BENCH_e2e.json
      records with density/batch and a "speedup_csr" metric (the
      per-frame CSR chain vs the legacy densify/sparsify chain)
  BENCH_sparse_engine.json
      records with network/density and a "speedup_planner" metric
      (planner-routed engine vs all-dense, same machine same run)
  BENCH_serve.json
      records with network/streams and a "speedup_serve" metric
      (concurrent serving runtime vs per-stream serial dense execution
      at the same worker budget, same machine same run); paced
      closed-loop records carry "ontime_ratio" instead (fraction of
      frames completed within the wall deadline while ingress replays
      at IngressConfig::pace_speedup x real time) and gate on it the
      same way — a lower fresh ratio than baseline is a regression
  BENCH_obs.json
      records with an "obs" probe name and a single "ratio" metric —
      same-run observability-overhead ratios (e.g. serve fps with
      tracing on / off, disabled-site cost vs a clock read), gated so
      the always-on instrumentation stays effectively free

Records are keyed by (kernel, shape, density); every metric of a record
gates independently. Keys present only in the fresh run (newly added
benches) are reported but do not gate; keys missing from the fresh run
fail the gate (a silently dropped bench must not pass as "no
regression"). Thread counts must match between baseline and fresh run —
extra fast-path threads would mask real regressions.

Malformed inputs (truncated/invalid JSON, a missing required key, a
non-numeric metric) are rejected with a message naming the file, record
index and key, and exit code 2 — never a raw traceback.

Usage: check_bench_regression.py BASELINE.json FRESH.json [--threshold 0.20]
"""

import argparse
import json
import sys


class BenchFormatError(Exception):
    """A benchmark JSON is malformed or missing a required key."""


def _require(record, key, path, index):
    """Fetches record[key], naming the file/record/key on failure."""
    try:
        return record[key]
    except (KeyError, TypeError):
        raise BenchFormatError(
            f"{path}: results[{index}] is missing required key "
            f"'{key}' (record: {json.dumps(record)[:200]})") from None


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise BenchFormatError(f"{path}: cannot read file: {e}") from None
    except json.JSONDecodeError as e:
        raise BenchFormatError(
            f"{path}: malformed JSON at line {e.lineno} column {e.colno}: "
            f"{e.msg}") from None
    if not isinstance(data, dict):
        raise BenchFormatError(
            f"{path}: top level must be a JSON object, got "
            f"{type(data).__name__}")
    results = data.get("results")
    if not isinstance(results, list):
        raise BenchFormatError(
            f"{path}: missing required key 'results' (or it is not a "
            f"list) — not a benchmark output file?")
    out = {}
    for i, r in enumerate(results):
        try:
            if not isinstance(r, dict):
                raise BenchFormatError(
                    f"{path}: results[{i}] must be an object, got "
                    f"{type(r).__name__}")
            if "kernel" in r:
                key = (r["kernel"], _require(r, "shape", path, i),
                       round(float(_require(r, "density", path, i)), 6))
                metrics = {"speedup": float(_require(r, "speedup", path, i))}
            elif "speedup_planner" in r:  # sparse engine schema
                key = ("sparse_engine", _require(r, "network", path, i),
                       round(float(_require(r, "density", path, i)), 6))
                metrics = {"speedup_planner": float(r["speedup_planner"])}
            elif "ontime_ratio" in r:  # paced closed-loop serving schema
                key = ("serve_paced", _require(r, "network", path, i),
                       float(int(_require(r, "streams", path, i))))
                metrics = {"ontime_ratio": float(r["ontime_ratio"])}
            elif "speedup_serve" in r:  # serving schema (keyed by streams)
                key = ("serve", _require(r, "network", path, i),
                       float(int(_require(r, "streams", path, i))))
                metrics = {"speedup_serve": float(r["speedup_serve"])}
            elif "obs" in r:  # observability-overhead schema
                key = ("obs", r["obs"],
                       float(int(r.get("streams", 0))))
                metrics = {"ratio": float(_require(r, "ratio", path, i))}
            else:  # e2e schema
                key = ("e2e", "batch=%d" % int(_require(r, "batch", path, i)),
                       round(float(_require(r, "density", path, i)), 6))
                metrics = {
                    "speedup_csr": float(_require(r, "speedup_csr", path, i)),
                }
        except (ValueError, TypeError) as e:
            raise BenchFormatError(
                f"{path}: results[{i}] has a non-numeric value where a "
                f"number is required: {e}") from None
        out[key] = metrics
    try:
        threads = int(data.get("threads", 0))
    except (ValueError, TypeError):
        raise BenchFormatError(
            f"{path}: top-level key 'threads' must be an integer, got "
            f"{data.get('threads')!r}") from None
    return out, threads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="maximum tolerated fractional speedup drop")
    args = parser.parse_args()

    try:
        base, base_threads = load(args.baseline)
        fresh, fresh_threads = load(args.fresh)
    except BenchFormatError as e:
        print(f"bench gate input error: {e}", file=sys.stderr)
        return 2
    if base_threads != fresh_threads:
        print(f"thread-count mismatch: baseline ran with {base_threads} "
              f"threads, fresh run with {fresh_threads} — regenerate one "
              f"side (EVEDGE_THREADS pins the worker count)",
              file=sys.stderr)
        return 1

    failures = []
    print(f"{'kernel':<24} {'shape':<28} {'density':>8} "
          f"{'metric':<16} {'base':>8} {'fresh':>8} {'ratio':>7}")
    for key in sorted(base):
        kernel, shape, density = key
        if key not in fresh:
            failures.append(f"missing from fresh run: {key}")
            continue
        for metric in sorted(base[key]):
            b = base[key][metric]
            if metric not in fresh[key]:
                failures.append(f"missing metric {metric} for {key}")
                continue
            f = fresh[key][metric]
            ratio = f / b if b > 0 else float("inf")
            flag = "  FAIL" if ratio < 1.0 - args.threshold else ""
            print(f"{kernel:<24} {shape:<28} {density:>8.4f} "
                  f"{metric:<16} {b:>7.2f}x {f:>7.2f}x {ratio:>7.2f}{flag}")
            if ratio < 1.0 - args.threshold:
                failures.append(
                    f"{kernel} {shape} density={density} {metric}: "
                    f"{b:.2f}x -> {f:.2f}x "
                    f"({(1.0 - ratio) * 100:.0f}% drop)")
    gated = sum(len(m) for m in base.values())
    new = sorted(set(fresh) - set(base))
    for key in new:
        for metric in sorted(fresh[key]):
            print(f"{key[0]:<24} {key[1]:<28} {key[2]:>8.4f} "
                  f"{metric:<16} {'new':>8} {fresh[key][metric]:>7.2f}x")

    if failures:
        print("\nPERF REGRESSION GATE FAILED "
              f"(>{args.threshold * 100:.0f}% speedup drop):", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate OK: no metric dropped more than "
          f"{args.threshold * 100:.0f}% vs baseline "
          f"({gated} gated, {len(new)} new record(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
