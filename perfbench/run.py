#!/usr/bin/env python3
"""Run one benchmark workload: build the programs from source, then run the
workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the release `adec` binary and
the benchmark (`perfbench/`, a Cargo package of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload, and passes
its output through: a line per metric, diagnostic and check, then the
result JSON as the last line. Per-run records, spans and label hashes go to
`.bench_build/perfbench-runs/`. Exits 0 only when every output check
passed; without the repository's sources next to it, exits 2 and prints no
result.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("train-digits", "serve-single", "serve-batch")
BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def source_digest(root):
    """A digest of every source the programs are built from, so that label
    hashes are only compared between runs of the same sources."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for base in (root / "crates", BENCH):
        files += [p for p in base.rglob("*") if p.is_file() and "target" not in p.parts
                  and "__pycache__" not in p.parts]
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes() if path.is_file() else b"")
    return h.hexdigest()[:16]


def build(cmd, env):
    # Cargo's output goes to stderr so that the result stays the last
    # line of standard output.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: the adec sources (Cargo.toml, crates/) are not next to the benchmark",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    # The trainers and the server run serially, as they do by default.
    env.pop("ADEC_THREADS", None)
    target = ROOT / env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = str(target)
    build(["cargo", "build", "--release", "--offline", "--quiet", "-p", "adec-cli", "--bin", "adec"],
          env)
    build(["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")], env)

    cmd = [str(target / "release" / "adec-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--adec", str(target / "release" / "adec"),
           "--out", str(ROOT / ".bench_build" / "perfbench-runs"),
           "--source-digest", source_digest(ROOT)]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
