"""Benchmark of the bsvie solvers, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference-cli --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload picard-zeta --trace 1 --size smoke

Every repetition runs in a fresh process (``worker.py``) with the
checkout's ``src`` on PYTHONPATH and BLAS pinned to one thread, so set-up
includes importing bsvie and peak RSS belongs to that workload alone.
Repetitions start while the slowest one so far would still end within
``--seconds``; there is always at least one.  Set-up is also
measured in a few set-up-only processes, after one untimed warm-up that
fills the bytecode and page caches.  Each reported time is the median
over the processes of the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead against the untraced ones.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment, the operation outcomes and the accuracy figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, ".out")
sys.path.insert(0, BENCH_DIR)

from workloads import SIZES, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run ends within three minutes
PINNED_DEADLINE_S = 900.0  # the pinned size is for notes only and takes minutes


class BenchError(RuntimeError):
    """A worker process failed; no result can be reported."""


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes_computed") or metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("max_contraction_ratio"):
        return "ratio"
    if metric.endswith("solves_per_check"):
        return "solves/check"
    return "count"


def source_digest() -> str:
    """sha256 over the package sources; identifies the code when git cannot."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    rev = "unavailable"  # a checkout without .git is identified by source_sha256
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": rev,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    """Starts worker processes for one workload and keeps the run's deadline."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.base = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
                     "--workload", workload, "--seed", str(seed), "--size", size,
                     "--scratch", os.path.join(OUT_DIR, "tmp")]
        self.env = _worker_env()
        self.deadline = time.monotonic() + (PINNED_DEADLINE_S if size == "pinned"
                                            else DEADLINE_S)

    def __call__(self, *extra: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(self.base + list(extra), env=self.env, timeout=timeout,
                                  stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not finish before the run deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {' '.join(extra)} exited with {proc.returncode}")
        return json.loads(lines[-1])


def _repeat_check(workload: str, size: str, seed: int, digest: str, reps: list) -> list:
    """Table checksums must repeat across runs of one source tree and seed."""
    if not any(r["checksums"] for r in reps):
        return []
    steps, paths = SIZES[workload][size]
    path = os.path.join(OUT_DIR, "checksums",
                        f"{workload}-{steps}x{paths}-seed{seed}-{digest[:16]}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            first = json.load(fh)
    except FileNotFoundError:
        first = reps[0]["checksums"]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(first, fh, sort_keys=True)
    return [["check:checksums_repeat", r["checksums"] == first, ""] for r in reps]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str,
            digest: str) -> dict:
    run = Runner(workload, seed, size)
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    run("--setup-only")  # warm-up, not counted
    setups = [run("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    started = time.monotonic()
    longest = 0.0
    while True:
        use_trace = trace and len(plain) > len(traced)
        extra = ["--trace", "1" if use_trace else "0"]
        if use_trace:
            extra += ["--spans", os.path.join(
                OUT_DIR, f"spans-{workload}-{size}-seed{seed}-{len(traced)}.json")]
        t = time.monotonic()
        (traced if use_trace else plain).append(run(*extra))
        now = time.monotonic()
        longest = max(longest, now - t)
        # start another repetition only if it should end within the run's time
        if trace and not traced:
            continue
        if now - started + longest > seconds or now + 1.5 * longest > run.deadline:
            break

    reps = plain + traced
    ops = [op for r in reps for op in r["ops"]]
    ops += _repeat_check(workload, size, seed, digest, reps)
    if len(traced) > 1:
        counts = [{k: v for k, v in r["layers"].items() if _unit(k) != "s"} for r in traced]
        ops.append(["check:trace_counts_repeat", all(c == counts[0] for c in counts[1:]), ""])
    return {
        "setups": setups + [r["setup_s"] for r in reps],
        "plain": plain,
        "traced": traced,
        "ops": ops,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def metrics_of(m: dict, trace: bool) -> dict:
    if not trace:
        values = {
            "setup_s": _median(m["setups"]),
            "run_s": _median(r["run_s"] for r in m["plain"]),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in m["plain"]),
        }
        return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    traced = m["traced"]
    out = {}
    for key in traced[0]["layers"]:
        out[key] = {"value": _median(r["layers"][key] for r in traced), "unit": _unit(key)}
    overhead = (_median(r["run_s"] for r in traced) - _median(r["run_s"] for r in m["plain"]))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def report(workload: str, seed: int, size: str, m: dict, metrics: dict) -> None:
    steps, paths = SIZES[workload][size]
    failed = [op for op in m["ops"] if not op[1]]
    print(f"workload {workload}  seed {seed}  size {steps}x{paths}  "
          f"repetitions {len(m['plain'])} untraced + {len(m['traced'])} traced  "
          f"set-up samples {len(m['setups'])}")
    print("  run_s of each repetition: "
          + " ".join(f"{r['run_s']:.4f}" for r in m["plain"] + m["traced"]))
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'ops_failed_frac':32s} {len(failed) / len(m['ops']):.6g} ratio "
          f"({len(failed)} of {len(m['ops'])} operations)")
    quality = (m["plain"] or m["traced"])[0]["quality"]
    for name, value in quality.items():
        unit = "count" if name.endswith("_iterations") else (
            "sigma" if name.endswith("_score") else "ratio")
        print(f"  {name:32s} {value:.6g} {unit} (fixed for a seed)")
    for name, passed, detail in failed:
        print(f"  FAILED {name}: {detail}")


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="default", choices=("default", "smoke", "pinned"))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bsvie", "__init__.py")):
        print("error: run from the root of a bsvie checkout (no src/bsvie here)",
              file=sys.stderr)
        return 2
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            m = measure(name, args.seed, args.seconds, trace, args.size, env["source_sha256"])
            mine = metrics_of(m, trace)
            report(name, args.seed, args.size, m, mine)
            attempted += len(m["ops"])
            failed += sum(1 for op in m["ops"] if not op[1])
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in mine.items()})
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
