#!/usr/bin/env python3
"""Bench-regression tripwire for the packed gemm path, the fused
bias-ReLU kernels, the checkpoint checksum, and the serve SLO.

Compares a fresh bench report against a committed baseline and fails on
catastrophic regression. Two report schemas are understood, auto-detected
from the `schema` field (both files must agree):

* `adec-bench-kernels/v1` — per-kernel ns/op, keyed by (name, tier,
  isa); any packed gemm, fused bias-ReLU (forward or backward) or
  `crc32` entry more than REGRESSION_FACTOR slower than baseline fails. An entry without `isa` predates the field and was
  timed at `scalar`. Scalar entries are always gated and a missing one
  fails; a baseline entry at a level above the fresh report's top-level
  `isa` (the highest level the runner's CPU runs) is listed as "not run
  on this host" and does not fail.
* `adec-bench-serve/v1` — a `BENCH_serve.json` load report; fails when
  the open-loop p99 or the valid-request error rate grows past
  REGRESSION_FACTOR x baseline (each with an absolute floor so sub-noise
  values can't trip it), when the 503 busy rate doubles past its floor,
  when client/server counts failed to reconcile, or when two reports
  built from identical load configs disagree on the schedule hash.

The factor is deliberately tolerant (2x): CI runners are noisy and the
tripwire is for catastrophic regressions (a dropped kernel path, an
accidental naive fallback, a fused activation back on per-element
dispatch, a checksum back at bytewise speed, a serve path that fell off
its SLO cliff), not for nanosecond drift.

Usage: bench_compare.py BASELINE.json FRESH.json [COMPARISON_OUT.json]

Writes a machine-readable comparison to COMPARISON_OUT.json (default:
bench_comparison.json) so CI can upload it as an artifact, then exits 0
(ok) or 1 (regression / bad input).
"""

import json
import sys

REGRESSION_FACTOR = 2.0
PACKED_GEMM = ("matmul", "matmul_packed", "matmul_at_b", "matmul_a_bt")
# The fused bias-ReLU, forward and backward: loops that match on the
# activation per element again run 7-9x (forward) and 2.5-3.4x
# (backward) slower, past the factor.
FUSED_RELU = ("add_bias_relu", "add_bias_relu_backward")
# Kernel entries the tripwire gates: the packed gemms, the fused bias-ReLU
# and the checkpoint checksum.
GATED = PACKED_GEMM + FUSED_RELU + ("crc32",)
KERNELS_SCHEMA = "adec-bench-kernels/v1"
# Instruction-set levels the gemm is timed at, lowest first; a CPU that
# runs a level runs every level before it.
ISA_LEVELS = ("scalar", "avx2")
SERVE_SCHEMA = "adec-bench-serve/v1"

# Absolute floors for the serve ratchet: a metric must exceed BOTH the
# 2x ratio AND its floor to fail, so a 0.4ms -> 0.9ms p99 on an idle CI
# runner (pure noise) can't block a merge.
P99_FLOOR_S = 0.010      # 10 ms
ERROR_RATE_FLOOR = 0.01  # 1% of valid requests
BUSY_RATE_FLOOR = 0.02   # 2% of the offered schedule


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema")
    if schema not in (KERNELS_SCHEMA, SERVE_SCHEMA):
        sys.exit(f"{path}: schema {schema!r}, want {KERNELS_SCHEMA!r} "
                 f"or {SERVE_SCHEMA!r}")
    return doc


def kernel_entries(doc):
    return {
        (e["name"], e["tier"], e.get("isa", "scalar")): e
        for e in doc["entries"]
        if e["name"] in GATED
    }


def host_levels(doc):
    """The levels a report's host runs: every level up to its `isa`."""
    top = doc.get("isa", "scalar")
    if top not in ISA_LEVELS:
        return ("scalar",)
    return ISA_LEVELS[:ISA_LEVELS.index(top) + 1]


def compare_kernels(baseline, fresh):
    """Returns (rows, failures) for two kernels-schema docs."""
    levels = host_levels(fresh)
    baseline, fresh = kernel_entries(baseline), kernel_entries(fresh)
    rows, failures = [], []
    for key in sorted(baseline):
        name, tier, isa = key
        if isa != "scalar" and isa not in levels:
            rows.append({
                "name": name,
                "tier": tier,
                "isa": isa,
                "baseline_ns_per_op": baseline[key]["ns_per_op"],
                "regressed": False,
                "status": "not run on this host",
            })
            print(f"{name:<14} {tier:<8} {isa:<7} not run on this host")
            continue
        if key not in fresh:
            failures.append(f"{name}/{tier}/{isa}: missing from fresh report")
            continue
        base_ns = baseline[key]["ns_per_op"]
        fresh_ns = fresh[key]["ns_per_op"]
        ratio = fresh_ns / base_ns
        regressed = ratio > REGRESSION_FACTOR
        rows.append({
            "name": name,
            "tier": tier,
            "isa": isa,
            "baseline_ns_per_op": base_ns,
            "fresh_ns_per_op": fresh_ns,
            "ratio": round(ratio, 3),
            "regressed": regressed,
            "status": "regressed" if regressed else "ok",
        })
        verdict = "REGRESSED" if regressed else "ok"
        print(f"{name:<14} {tier:<8} {isa:<7} {base_ns:>12} -> {fresh_ns:>12} "
              f"ns/op ({ratio:5.2f}x)  {verdict}")
        if regressed:
            failures.append(
                f"{name}/{tier}/{isa}: {fresh_ns} ns/op is {ratio:.2f}x the "
                f"baseline {base_ns} (limit {REGRESSION_FACTOR}x)")

    if not any("ratio" in r for r in rows):
        failures.append("no gated kernel entries matched between reports")
    return rows, failures


def ratcheted(name, base, fresh, floor):
    """One serve metric: fails only past BOTH the ratio and the floor."""
    limit = max(REGRESSION_FACTOR * base, floor)
    regressed = fresh > limit
    row = {
        "name": name,
        "baseline": base,
        "fresh": fresh,
        "limit": round(limit, 6),
        "regressed": regressed,
    }
    verdict = "REGRESSED" if regressed else "ok"
    print(f"{name:<14} {base:>12.6f} -> {fresh:>12.6f} "
          f"(limit {limit:.6f})  {verdict}")
    failure = None
    if regressed:
        failure = (f"{name}: {fresh:.6f} exceeds limit {limit:.6f} "
                   f"(max of {REGRESSION_FACTOR}x baseline {base:.6f} "
                   f"and floor {floor})")
    return row, failure


def compare_serve(baseline, fresh):
    """Returns (rows, failures) for two serve-schema docs."""
    rows, failures = [], []

    def metric(doc, *path, default=None):
        node = doc
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return default
            node = node[key]
        return node

    checks = [
        ("p99_latency_s",
         metric(baseline, "timing", "latency_s", "p99"),
         metric(fresh, "timing", "latency_s", "p99"),
         P99_FLOOR_S),
        ("error_rate",
         metric(baseline, "outcomes", "error_rate"),
         metric(fresh, "outcomes", "error_rate"),
         ERROR_RATE_FLOOR),
        ("busy_rate",
         metric(baseline, "outcomes", "busy_rate"),
         metric(fresh, "outcomes", "busy_rate"),
         BUSY_RATE_FLOOR),
    ]
    for name, base, new, floor in checks:
        if base is None or new is None:
            failures.append(f"{name}: missing from "
                            f"{'baseline' if base is None else 'fresh'} report")
            continue
        row, failure = ratcheted(name, base, new, floor)
        rows.append(row)
        if failure:
            failures.append(failure)

    # A fresh report whose client counts don't reconcile with the
    # server's own counter is reporting on a different run than the one
    # that happened — never ratchet against it.
    reconcile = metric(fresh, "reconcile", default={})
    if reconcile.get("checked") and not reconcile.get("consistent"):
        failures.append("fresh report failed client/server reconciliation: "
                        + str(reconcile.get("detail", "")))

    # Same load config must mean the same deterministic schedule; a hash
    # mismatch means the generator itself changed under the snapshot.
    if metric(baseline, "config") == metric(fresh, "config"):
        base_hash = metric(baseline, "schedule", "fnv_hash")
        fresh_hash = metric(fresh, "schedule", "fnv_hash")
        if base_hash != fresh_hash:
            failures.append(
                f"schedule hash mismatch for identical config: "
                f"baseline {base_hash} vs fresh {fresh_hash}")
    else:
        print("note: load configs differ; schedule hash not compared")

    return rows, failures


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    baseline_path, fresh_path = argv[1], argv[2]
    out_path = argv[3] if len(argv) > 3 else "bench_comparison.json"
    baseline = load_doc(baseline_path)
    fresh = load_doc(fresh_path)
    if baseline["schema"] != fresh["schema"]:
        sys.exit(f"schema mismatch: {baseline_path} is "
                 f"{baseline['schema']!r} but {fresh_path} is "
                 f"{fresh['schema']!r}")

    if baseline["schema"] == SERVE_SCHEMA:
        rows, failures = compare_serve(baseline, fresh)
    else:
        rows, failures = compare_kernels(baseline, fresh)

    comparison = {
        "schema": "adec-bench-comparison/v1",
        "mode": "serve" if baseline["schema"] == SERVE_SCHEMA else "kernels",
        "regression_factor": REGRESSION_FACTOR,
        "entries": rows,
        "failures": failures,
    }
    with open(out_path, "w") as f:
        json.dump(comparison, f, indent=2)
        f.write("\n")
    print(f"comparison written to {out_path}")

    if failures:
        for msg in failures:
            print(f"bench tripwire: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
