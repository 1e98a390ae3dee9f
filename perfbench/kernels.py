"""Kernel timings on every importable backend, with a bit-identity gate.

Times the orbit kernel (70 000 iterations), byte normalization of 65 536
samples, and both together (one 256x256 keystream) on each kernel
backend that imports, and reports the median, the interquartile range
and the sample count of each. A byte difference between backends is a
hard failure (exit 1). The traced benchmark run reports the same cases
for the default backend as ``kernel.*`` layer metrics. Usage:

    python3 perfbench/kernels.py [--repeat 15]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ORBIT_ITERS = 70_000
BLOCK = 65_536


class BackendMismatch(Exception):
    """Two kernel backends returned different bytes for the same input."""


def _orbit(mod, n: int) -> np.ndarray:
    samples, escaped = mod.run_orbit(0.1, 3.6, 1, 1.0, n)
    if escaped != -1:
        raise BackendMismatch(f"{mod.BACKEND}: reference orbit escaped at {escaped}")
    return samples


def _normalize(mod, block: np.ndarray) -> np.ndarray:
    out = np.empty(len(block), dtype=np.uint8)
    bad = mod.normalize_block(block, out)
    if bad != -1:
        raise BackendMismatch(f"{mod.BACKEND}: normalize rejected sample {bad}")
    return out


def _cases(block: np.ndarray) -> dict:
    return {
        "orbit_70000": lambda mod: _orbit(mod, ORBIT_ITERS),
        "normalize_65536": lambda mod: _normalize(mod, block),
        "keystream_65536": lambda mod: _normalize(mod, np.ascontiguousarray(_orbit(mod, BLOCK)[1:])),
    }


def measure(backends: dict, repeat: int) -> dict[str, dict[str, dict]]:
    """{backend: {case: {ms_p50, ms_iqr, n}}}; raises BackendMismatch."""
    first = next(iter(backends.values()))
    block = np.ascontiguousarray(_orbit(first, BLOCK)[1:])
    results = {name: {} for name in backends}
    for case, run in _cases(block).items():
        reference = None
        for name, mod in backends.items():
            data = np.asarray(run(mod)).tobytes()
            if reference is None:
                reference = (name, data)
            elif data != reference[1]:
                raise BackendMismatch(f"{case}: {name} and {reference[0]} return different bytes")
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                run(mod)
                times.append(time.perf_counter() - start)
            q1, median, q3 = statistics.quantiles(times, n=4)
            results[name][case] = {"ms_p50": median * 1e3, "ms_iqr": (q3 - q1) * 1e3, "n": repeat}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15, help="timed calls per case and backend")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from cubicrypt._backend import available_backends

    try:
        results = measure(available_backends(), max(args.repeat, 2))
    except BackendMismatch as exc:
        print(f"BACKEND MISMATCH: {exc}")
        return 1
    print(f"{'backend':<10} {'kernel':<18} {'median ms':>10} {'IQR ms':>9} {'n':>4}")
    for backend, cases in results.items():
        for case, stat in cases.items():
            print(f"{backend:<10} {case:<18} {stat['ms_p50']:>10.3f} {stat['ms_iqr']:>9.3f} {stat['n']:>4}")
    print(f"outputs bit-identical across {len(results)} backend(s): {', '.join(results)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
