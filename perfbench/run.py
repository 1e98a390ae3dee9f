"""cubicrypt benchmark: four seeded workloads, end-to-end metrics, layer trace.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Builds the program from the checkout (``setup.py build_ext --inplace``,
which compiles the kernel extension when its build tools exist), then
runs each workload in a fresh process on the default kernel backend.
Without --workload every workload of BENCHMARK.json runs in turn, and
--seconds defaults to its ``run_seconds``. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1, named as there for one
workload and ``<workload>.<name>`` when several run. The lines before
it give every metric with its unit and sample count, and the run's
environment. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exchange-mem", "exchange-tcp-small", "cli-files", "lbe-sweep")
SETUPS = 5  # set-up is measured this many times per run; setup_s is the median
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "correct_frac": "frac",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def build() -> None:
    """Build the checkout's extension modules in place; a no-op without them."""
    for required in ("setup.py", "src/cubicrypt/__init__.py"):
        if not (ROOT / required).is_file():
            raise BenchError(f"{required} not found: run from a cubicrypt checkout")
    cmd = [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
           "--build-temp", str(Path(".bench_build") / "py")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise BenchError("building the program failed")


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn(workload: str, seed: int, seconds: float, trace: int, *extra: str, env=None) -> dict:
    """Run worker.py once in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    extra = ("--tiny",) if tiny else ()
    if trace:
        result = spawn(workload, seed, seconds, 1, *extra)
        others = [b for b in result["backends"] if b != result["backend"]]
        if others:
            # a second backend imports: it must give the same bytes
            pure = spawn(workload, seed, 0, 0, *extra, env=dict(os.environ, CUBICRYPT_PURE="1"))
            if pure["digest"] != result["digest"]:
                raise BenchError(
                    f"{workload}: backend {pure['backend']} and {result['backend']} outputs differ"
                )
        result["backends_compared"] = len(others) + 1
        return result
    setups = [spawn(workload, seed, seconds, 0, "--setup-only", *extra) for _ in range(SETUPS - 1)]
    result = spawn(workload, seed, seconds, 0, *extra)
    setups.append(result)
    result["setup_samples"] = len(setups)
    for key in ("setup_s", "setup_s_wall"):
        result[key] = statistics.median(s[key] for s in setups)
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, int]]:
    """Each metric with its sample count."""
    n = result["attempted"]
    return {
        "setup_s": (result["setup_s"], result["setup_samples"]),
        "ops_per_s": (result["ops_per_s"], n),
        "latency_ms_p50": (result["latency_ms_p50"], n),
        "latency_ms_p90": (result["latency_ms_p90"], n),
        "correct_frac": ((n - result["failed"]) / n, n),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
    }


def parse_args(argv, benchmark: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # BENCHMARK.json sets the default workloads and run length
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, benchmark)
    try:
        build()
        sha = git_sha()
        summary = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        chosen = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
        for workload in chosen:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.tiny)
            env = {k: result[k] for k in ("workload", "seed", "backend", "backends", "python", "numpy", "nproc")}
            env.update(git_sha=sha, passes=result["passes"], digest=result["digest"],
                       backends_compared=result.get("backends_compared", 1), host_speed=result["host_speed"],
                       time_wait_start=result["time_wait_start"], time_wait_end=result["time_wait_end"])
            print(json.dumps({"env": env}))
            if args.trace:
                metrics = result["layers"]
                for name, value in metrics.items():
                    print(f"{workload:<20} {name:<44} {value:>14.6g}")
                print(f"{workload:<20} spans written to {result['spans_file']}")
                metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
            else:
                rows = end_to_end(result)
                failed_frac = result["failed"] / result["attempted"]
                print(f"{workload:<20} {'metric':<16} {'scaled':>14} {'unit':<5} {'n':<8} {'wall':>14}")
                for name, (value, n) in rows.items():
                    wall = f"{result[name + '_wall']:>14.6g}" if name + "_wall" in result else ""
                    print(f"{workload:<20} {name:<16} {value:>14.6g} {UNITS[name]:<5} {n:<8} {wall}")
                print(f"{workload:<20} {'failed_frac':<16} {failed_frac:>14.6g} {'frac':<5} {result['attempted']}")
                metrics = {name: {"value": value, "unit": UNITS[name]} for name, (value, _) in rows.items()}
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            if len(chosen) == 1:
                summary["metrics"] = metrics
            else:
                summary["metrics"].update({f"{workload}.{name}": m for name, m in metrics.items()})
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "ms_" in name:
        return "ms"
    if name.endswith("ns_per_iter") or name.endswith("ns_per_byte"):
        return "ns"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
