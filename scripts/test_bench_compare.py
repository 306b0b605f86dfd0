#!/usr/bin/env python3
"""Unit tests for scripts/bench_compare.py (both schemas).

Run with: python3 scripts/test_bench_compare.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare as bc  # noqa: E402


def kernels_doc(ns=1000):
    return {
        "schema": bc.KERNELS_SCHEMA,
        "entries": [
            {"name": "matmul", "tier": "medium", "ns_per_op": ns},
            {"name": "matmul_at_b", "tier": "medium", "ns_per_op": ns},
            # Non-gemm entries are ignored by the tripwire.
            {"name": "softmax", "tier": "medium", "ns_per_op": ns * 50},
        ],
    }


def leveled_kernels_doc(host="avx2", levels=("scalar", "avx2"), ns=None):
    """A kernels doc timed at each of `levels` on a host whose highest
    level is `host`; `ns` maps a level to its ns/op (default 1000)."""
    ns = ns or {}
    doc = {"schema": bc.KERNELS_SCHEMA, "isa": host, "entries": []}
    for isa in levels:
        for name in ("matmul", "matmul_at_b"):
            doc["entries"].append({"name": name, "tier": "medium", "isa": isa,
                                   "ns_per_op": ns.get(isa, 1000)})
    return doc


def serve_doc(p99=0.005, error_rate=0.0, busy_rate=0.0, fnv="00aa",
              seed=7, consistent=True):
    return {
        "schema": bc.SERVE_SCHEMA,
        "config": {"seed": seed, "rps": 500, "duration_s": 10.0},
        "schedule": {"requests": 5000, "fnv_hash": fnv},
        "outcomes": {"error_rate": error_rate, "busy_rate": busy_rate},
        "reconcile": {"checked": True, "consistent": consistent,
                      "detail": "test"},
        "timing": {"latency_s": {"p99": p99}},
    }


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class KernelsMode(unittest.TestCase):
    def test_identical_reports_pass(self):
        rows, failures = quiet(bc.compare_kernels, kernels_doc(), kernels_doc())
        self.assertEqual(failures, [])
        self.assertEqual(len(rows), 2)  # softmax excluded

    def test_slow_gemm_fails(self):
        rows, failures = quiet(bc.compare_kernels,
                               kernels_doc(1000), kernels_doc(2500))
        self.assertTrue(any("matmul/" in f for f in failures))
        self.assertTrue(all(r["regressed"] for r in rows))

    def test_missing_entry_fails(self):
        fresh = kernels_doc()
        fresh["entries"] = fresh["entries"][1:]  # drop matmul
        _, failures = quiet(bc.compare_kernels, kernels_doc(), fresh)
        self.assertTrue(any("missing from fresh" in f for f in failures))


class KernelsPerIsaLevel(unittest.TestCase):
    def test_entry_without_isa_reads_as_scalar(self):
        # The pre-isa baseline stays comparable with a leveled report.
        rows, failures = quiet(bc.compare_kernels, kernels_doc(),
                               leveled_kernels_doc())
        self.assertEqual(failures, [])
        self.assertEqual({r["isa"] for r in rows}, {"scalar"})

    def test_scalar_entries_are_gated_on_every_host(self):
        _, failures = quiet(bc.compare_kernels, leveled_kernels_doc(),
                            leveled_kernels_doc(ns={"scalar": 2500}))
        self.assertTrue(any("/scalar:" in f for f in failures))
        self.assertFalse(any("/avx2:" in f for f in failures))

    def test_missing_scalar_entry_fails(self):
        fresh = leveled_kernels_doc(host="scalar", levels=("avx2",))
        _, failures = quiet(bc.compare_kernels, leveled_kernels_doc(), fresh)
        self.assertTrue(any("/scalar: missing from fresh" in f
                            for f in failures))

    def test_level_the_host_lacks_is_listed_not_failed(self):
        fresh = leveled_kernels_doc(host="scalar", levels=("scalar",))
        rows, failures = quiet(bc.compare_kernels, leveled_kernels_doc(),
                               fresh)
        self.assertEqual(failures, [])
        skipped = [r for r in rows if r["status"] == "not run on this host"]
        self.assertEqual({(r["name"], r["isa"]) for r in skipped},
                         {("matmul", "avx2"), ("matmul_at_b", "avx2")})

    def test_level_the_host_runs_is_gated(self):
        _, failures = quiet(bc.compare_kernels, leveled_kernels_doc(),
                            leveled_kernels_doc(ns={"avx2": 2500}))
        self.assertTrue(any("/avx2:" in f for f in failures))
        fresh = leveled_kernels_doc(levels=("scalar",))
        _, failures = quiet(bc.compare_kernels, leveled_kernels_doc(), fresh)
        self.assertTrue(any("/avx2: missing from fresh" in f
                            for f in failures))


class ServeMode(unittest.TestCase):
    def test_identical_reports_pass(self):
        rows, failures = quiet(bc.compare_serve, serve_doc(), serve_doc())
        self.assertEqual(failures, [])
        self.assertEqual([r["name"] for r in rows],
                         ["p99_latency_s", "error_rate", "busy_rate"])

    def test_p99_regression_above_floor_fails(self):
        _, failures = quiet(bc.compare_serve,
                            serve_doc(p99=0.020), serve_doc(p99=0.080))
        self.assertTrue(any(f.startswith("p99_latency_s") for f in failures))

    def test_sub_floor_noise_is_tolerated(self):
        # 10x worse but still under the 10ms floor: an idle-runner jitter,
        # not a regression.
        _, failures = quiet(bc.compare_serve,
                            serve_doc(p99=0.0005), serve_doc(p99=0.005))
        self.assertEqual(failures, [])

    def test_error_rate_ratchet(self):
        _, failures = quiet(bc.compare_serve,
                            serve_doc(error_rate=0.005),
                            serve_doc(error_rate=0.5))
        self.assertTrue(any(f.startswith("error_rate") for f in failures))
        # Below the 1% floor nothing trips, even from a zero baseline.
        _, ok = quiet(bc.compare_serve,
                      serve_doc(error_rate=0.0), serve_doc(error_rate=0.005))
        self.assertEqual(ok, [])

    def test_busy_rate_ratchet(self):
        _, failures = quiet(bc.compare_serve,
                            serve_doc(busy_rate=0.03), serve_doc(busy_rate=0.09))
        self.assertTrue(any(f.startswith("busy_rate") for f in failures))

    def test_failed_reconcile_fails(self):
        _, failures = quiet(bc.compare_serve,
                            serve_doc(), serve_doc(consistent=False))
        self.assertTrue(any("reconciliation" in f for f in failures))

    def test_hash_mismatch_same_config_fails(self):
        _, failures = quiet(bc.compare_serve,
                            serve_doc(fnv="00aa"), serve_doc(fnv="00bb"))
        self.assertTrue(any("schedule hash mismatch" in f for f in failures))

    def test_hash_not_compared_across_configs(self):
        _, failures = quiet(bc.compare_serve,
                            serve_doc(fnv="00aa", seed=7),
                            serve_doc(fnv="00bb", seed=8))
        self.assertEqual(failures, [])

    def test_missing_metric_fails(self):
        fresh = serve_doc()
        del fresh["timing"]["latency_s"]
        _, failures = quiet(bc.compare_serve, serve_doc(), fresh)
        self.assertTrue(any("p99_latency_s: missing" in f for f in failures))


class MainEndToEnd(unittest.TestCase):
    def run_main(self, baseline, fresh):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, n) for n in
                     ("base.json", "fresh.json", "cmp.json")]
            for path, doc in zip(paths, (baseline, fresh)):
                with open(path, "w") as f:
                    json.dump(doc, f)
            code = quiet(bc.main, ["bench_compare.py", *paths])
            with open(paths[2]) as f:
                return code, json.load(f)

    def test_serve_mode_detected_and_passes(self):
        code, cmp_doc = self.run_main(serve_doc(), serve_doc())
        self.assertEqual(code, 0)
        self.assertEqual(cmp_doc["mode"], "serve")
        self.assertEqual(cmp_doc["failures"], [])

    def test_serve_regression_exits_nonzero(self):
        code, cmp_doc = self.run_main(serve_doc(p99=0.02), serve_doc(p99=0.2))
        self.assertEqual(code, 1)
        self.assertTrue(cmp_doc["failures"])

    def test_kernels_mode_detected(self):
        code, cmp_doc = self.run_main(kernels_doc(), kernels_doc())
        self.assertEqual(code, 0)
        self.assertEqual(cmp_doc["mode"], "kernels")

    def test_level_not_run_on_this_host_is_recorded(self):
        fresh = leveled_kernels_doc(host="scalar", levels=("scalar",))
        code, cmp_doc = self.run_main(leveled_kernels_doc(), fresh)
        self.assertEqual(code, 0)
        statuses = {(e["name"], e["isa"]): e["status"]
                    for e in cmp_doc["entries"]}
        self.assertEqual(statuses[("matmul", "avx2")], "not run on this host")
        self.assertEqual(statuses[("matmul", "scalar")], "ok")

    def test_schema_mismatch_refused(self):
        with self.assertRaises(SystemExit):
            self.run_main(kernels_doc(), serve_doc())


if __name__ == "__main__":
    unittest.main()
