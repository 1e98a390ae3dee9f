"""One workload run in a fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        [--spawned-at T] [--setup-only] [--tiny]

Set-up imports cubicrypt, builds the seeded inputs, checks the 8 profile
keystreams against their pinned digests and runs one warm-up operation.
The run then measures whole passes over the operation sequence for about
S seconds and prints one JSON object as its last line. Times are
reported both as measured (``*_wall``) and scaled to a reference host
speed (see ``calibrate``); BENCHMARK.json's metrics are the scaled
ones. ``--spawned-at``
is the parent's time.monotonic() just before it started this process;
that clock is shared by all processes, so setup_s includes interpreter
start-up. With --trace 1 passes alternate untraced and traced; the
traced ones give the layer metrics, both together the tracing overhead.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cubicrypt  # noqa: E402
import kernels  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5
# calibrate() takes about this long when the host runs at its fast speed
CALIBRATION_REF_S = 0.25e-3
SETUP_CALIBRATION_REF_S = 0.4e-3  # the same for calibrate_setup()
CALIBRATION_WINDOW = 11  # operations whose calibrations scale one latency
SETUP_CALIBRATIONS = 31
WINDOW_OPS = 50  # operations at least in one window of windowed_quantiles_ms()
_SMALL = np.random.default_rng(0).random(128)
_LARGE = np.random.default_rng(1).random(16384)


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that does not touch cubicrypt.

    The host's speed changes by up to 1.6x for seconds to minutes, for CPU
    time as much as for wall time. Sixty calls on a small NumPy array
    (interpreter and call overhead) and one sort of a larger one slow down
    with it much as the workloads do; a time divided by the calibrations
    taken next to it no longer does. Of the candidates tried (an integer
    loop, a float loop, small NumPy calls, a sort), this pair tracked the
    host best across workloads.
    """
    start = time.perf_counter()
    for _ in range(60):
        np.abs(_SMALL - _SMALL[::-1]).max()
    np.sort(_LARGE)
    return time.perf_counter() - start


def calibrate_setup() -> float:
    """Seconds taken by a fixed pure-Python loop.

    Set-up is interpreter start, imports and input generation, which
    track the host's speed like a plain loop, not like NumPy calls.
    """
    start = time.perf_counter()
    x = 0
    for i in range(8000):
        x += i * i
    return time.perf_counter() - start


def host_scaled(times: list, calibrations: list) -> list:
    """Each time at the reference host speed: scaled by CALIBRATION_REF_S
    over the median calibration of the CALIBRATION_WINDOW operations around it."""
    half = CALIBRATION_WINDOW // 2
    return [t * CALIBRATION_REF_S / statistics.median(calibrations[max(0, i - half):i + half + 1])
            for i, t in enumerate(times)]


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # seconds, from when each op was due
    calibrations: list = field(default_factory=list)  # calibrate() before each untraced op
    traced_latencies: list = field(default_factory=list)
    late: list = field(default_factory=list)  # seconds the open-loop generator ran late
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    wall: float = 0.0
    first_pass_digest: str = ""


def _wait_until(due: float) -> None:
    # sleep coarsely, then spin the last millisecond: sleep overshoot would
    # otherwise add tens of microseconds to sub-millisecond operations
    remaining = due - time.perf_counter()
    if remaining > 0.002:
        time.sleep(remaining - 0.001)
    while time.perf_counter() < due:
        pass


def measure(workload, seconds: float, tracer=None) -> Measurement:
    """Run whole passes until the next one would end after ``seconds``.

    Closed-loop workloads issue each operation when the previous one is
    checked; open-loop ones issue them at ``workload.rate`` per second and
    time each from when it was due. Every output is checked; a wrong
    output or an exception counts as a failed operation. With a tracer,
    odd passes run traced and even ones untraced, so that both see the
    same drift in host speed and their ratio gives the tracing overhead.
    """
    m = Measurement()
    ops = workload.ops
    min_passes = 1 if tracer is None else 2
    open_passes = max(min_passes, round(seconds * workload.rate / len(ops))) if workload.rate else 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        traced = tracer is not None and m.passes % 2 == 1
        digest = hashlib.sha256()
        if traced:
            tracer.begin_pass()
        with tracer.installed() if traced else contextlib.nullcontext():
            for op in ops:
                _run_op(workload, op, m, digest, tracer if traced else None, start)
        m.passes += 1
        if m.passes == 1:
            m.first_pass_digest = digest.hexdigest()
        now = time.perf_counter()
        if workload.rate:
            if m.passes >= open_passes:
                break
        elif now - start + (now - pass_start) > seconds and m.passes >= min_passes:
            break
    m.wall = time.perf_counter() - start
    return m


def _run_op(workload, op, m: Measurement, digest, tracer, start: float) -> None:
    pass_no = m.passes
    workload.prepare(op, pass_no)
    calibration = calibrate()
    if workload.rate:
        due = start + 0.005 + m.attempted / workload.rate
        _wait_until(due)
        m.late.append(time.perf_counter() - due)
    else:
        due = time.perf_counter()
    error = None
    try:
        if tracer is None:
            out = workload.call(op, pass_no)
        else:
            with tracer.op(m.attempted):
                out = workload.call(op, pass_no)
    except Exception as exc:  # a failed operation, not a failed run
        error = exc
    if tracer is None:
        m.latencies.append(time.perf_counter() - due)
        m.calibrations.append(calibration)
    else:
        m.traced_latencies.append(time.perf_counter() - due)
    m.attempted += 1
    try:
        if error is not None:
            raise error
        digest.update(workload.verify(op, pass_no, out))
    except Exception as exc:  # wrong output or a crash: count it
        m.failed += 1
        if m.failed <= MAX_REPORTED_FAILURES:
            print(f"{workload.name}: operation {m.attempted - 1} failed: {exc!r}", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)


def time_wait_sockets() -> int:
    """Host-wide TCP sockets in TIME-WAIT (state 06), read from /proc."""
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as f:
                next(f, None)
                count += sum(1 for line in f if line.split()[3] == "06")
        except OSError:
            pass
    return count


def _quantiles_ms(seconds: list) -> tuple[float, float]:
    ms = np.asarray(seconds) * 1e3
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


def windowed_quantiles_ms(seconds: list, ops_per_pass: int) -> tuple[float, float]:
    """p50 and p90 in ms: the median, over windows of whole passes that hold
    at least WINDOW_OPS operations, of each window's quantile.

    Every window holds the same operation mix, so the program's own slow
    operations count in each of them, while a burst of interference from
    other tenants that covers fewer than half of the windows moves neither
    quantile. A trailing part-window is left out.
    """
    size = ops_per_pass * -(-WINDOW_OPS // ops_per_pass)
    windows = [seconds[i:i + size] for i in range(0, len(seconds) - size + 1, size)] or [seconds]
    per_window = [_quantiles_ms(w) for w in windows]
    return statistics.median(q[0] for q in per_window), statistics.median(q[1] for q in per_window)


def run(name: str, seed: int, seconds: float, trace: bool = False, tiny: bool = False,
        spawned_at: float | None = None, setup_only: bool = False) -> dict:
    """Set up, measure and summarize one workload run."""
    began = time.monotonic() if spawned_at is None else spawned_at
    streams = workloads.verified_streams()
    workload = workloads.make(name, seed, streams, WORK / f"{name}-{os.getpid()}", tiny)
    try:
        warm = workload.ops[0]
        workload.prepare(warm, -1)
        workload.verify(warm, -1, workload.call(warm, -1))
        setup_wall = time.monotonic() - began
        setup_speed = SETUP_CALIBRATION_REF_S / statistics.median(
            calibrate_setup() for _ in range(SETUP_CALIBRATIONS))
        setup_s = setup_wall * setup_speed
        if setup_only:
            return {"setup_s": setup_s, "setup_s_wall": setup_wall}
        tw_start = time_wait_sockets() if name == "exchange-tcp-small" else 0
        tracer = tracing.Tracer() if trace else None
        m = measure(workload, seconds, tracer)
        tw_end = time_wait_sockets() if name == "exchange-tcp-small" else 0
    finally:
        workload.close()
    if seed == ref.DEFAULT_SEED and not tiny and m.first_pass_digest != ref.WORKLOAD_SHA256.get(name):
        raise workloads.PinnedDigestMismatch(
            f"{name}: outputs of the first pass at seed {seed} hash to {m.first_pass_digest}, "
            f"pinned {ref.WORKLOAD_SHA256.get(name)}"
        )

    scaled = host_scaled(m.latencies, m.calibrations)
    p50, p90 = windowed_quantiles_ms(scaled, len(workload.ops))
    wall_p50, wall_p90 = windowed_quantiles_ms(m.latencies, len(workload.ops))
    completed = m.attempted - m.failed
    # closed loop: completed ops per second of untraced time spent in them;
    # open loop: completed ops per second of schedule
    if workload.rate:
        ops_per_s = ops_per_s_wall = completed / m.wall
    else:
        ops_per_s = completed / m.attempted * len(scaled) / sum(scaled)
        ops_per_s_wall = completed / m.attempted * len(m.latencies) / sum(m.latencies)
    result = {
        "workload": name,
        "seed": seed,
        "backend": cubicrypt.KERNEL_BACKEND,
        "backends": sorted(cubicrypt.available_backends()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "setup_s": setup_s,
        "setup_s_wall": setup_wall,
        "host_speed": statistics.median(CALIBRATION_REF_S / c for c in m.calibrations),
        "attempted": m.attempted,
        "failed": m.failed,
        "passes": m.passes,
        "ops_per_pass": len(workload.ops),
        "ops_per_s": ops_per_s,
        "ops_per_s_wall": ops_per_s_wall,
        "latency_ms_p50": p50,
        "latency_ms_p90": p90,
        "latency_ms_p50_wall": wall_p50,
        "latency_ms_p90_wall": wall_p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": m.first_pass_digest,
        "late_ms_p90": _quantiles_ms(m.late)[1] if m.late else 0.0,
        "time_wait_start": tw_start,
        "time_wait_end": tw_end,
    }
    if trace:
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = statistics.fmean(m.traced_latencies) / statistics.fmean(m.latencies) - 1
        layers["loadgen.late_ms_p90"] = result["late_ms_p90"]
        layers["host.time_wait_start"] = tw_start
        layers["host.time_wait_end"] = tw_end
        backend = cubicrypt.available_backends()[cubicrypt.KERNEL_BACKEND]
        for case, stat in kernels.measure({cubicrypt.KERNEL_BACKEND: backend}, 11)[cubicrypt.KERNEL_BACKEND].items():
            layers[f"kernel.{case}.ms_p50"] = stat["ms_p50"]
            layers[f"kernel.{case}.ms_iqr"] = stat["ms_iqr"]
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        result["layers"] = layers
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload run")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not Path(cubicrypt.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cubicrypt imported from {cubicrypt.__file__}, not from this checkout", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
                     args.spawned_at, args.setup_only)
    except (workloads.PinnedDigestMismatch, kernels.BackendMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
