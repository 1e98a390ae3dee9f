"""Correctness references the benchmark checks the program against.

Everything here is written from the paper's specification, not imported
from cubicrypt, so a check built on it does not trust the code it checks:

- ``PROFILE_SHA256``: SHA-256 of each of the 8 device profiles' full
  keystream (70 000 bytes single-orbit, 70 x 1024 bytes multi-seed).
- ``WORKLOAD_SHA256``: digest of every output of the first pass of each
  workload at ``DEFAULT_SEED`` and full size.
- ``orbit`` / ``keystream``: a plain-Python cubic map in each scheme's
  exact operation order, and the byte normalization, which reproduce the
  pinned profile digests (see tests/test_bench.py).
"""

import hashlib
import math

import numpy as np

DEFAULT_SEED = 0

PROFILE_SHA256 = {
    "device1": "7e886fae6e90ced7c2f035bbc2706e816012fab410d87c616d502cd2f331dd1b",
    "device1-damped": "29c000e3fea6319a3419bff8400e38a29d4c5b486a24bc1eb8a47e398f87f09f",
    "device2": "657e2aa8193c04f1bae5ca98238dc75909364a516f4b7b1a3f1eb1c2b3f471de",
    "device2-damped": "904662d6396fa276cf1826acdaab2a0ecc32133743d2f5fac7cc614596d4e2a8",
    "device3": "3a100bb6f66c1e1099d98de2be512ef4928e055356f20c326019ade64b2e8995",
    "device3-damped": "21548a5980a66a9ca0772161e72e7fa97cac4c7830789bbf684c5e1b044ce89f",
    "device4": "7e886fae6e90ced7c2f035bbc2706e816012fab410d87c616d502cd2f331dd1b",
    "device4-damped": "29c000e3fea6319a3419bff8400e38a29d4c5b486a24bc1eb8a47e398f87f09f",
}

WORKLOAD_SHA256 = {
    "exchange-mem": "9e17c3bb9437ce5165aa4fc4ee38cd7fa0112f4f910ac4342f18c8452de75ad1",
    "exchange-tcp-small": "b02c53f3f1533eb117582711c1d20a9ee4dfdf6becaf588ce22771f0163aebec",
    "cli-files": "c3906a9013b2899b3c73c827d52a823828508bdb4e8e1ffa22efd5d20b153839",
    "lbe-sweep": "e3c646e0736a0fc958bba9398ca946ba4f6b5f6a7a24060d82c223760bf5f209",
}

SINGLE_ITERATIONS = 70_000
SEED_COUNT = 70
ITERATIONS_PER_SEED = 1024
SINGLE_R = 3.6
DAMPED_R = 3.61
DAMPING = 0.89


def orbit(x0: float, r: float, scheme: int, damping: float, n: int) -> np.ndarray:
    """Samples x[0..n] of the cubic map r*x**3 + (1-r)*x in ``scheme``'s order.

    e1/e4: ((r*x)*x)*x + (1-r)*x; e2: r*((x*x)*x) + (x - r*x);
    e3: x*(((r*x)*x) + (1-r)). Each iterate is multiplied by ``damping``
    before it is fed back. Raises ValueError when a sample leaves [-1.5, 1.5].
    """
    omr = 1.0 - r
    out = [x0]
    x = x0
    for _ in range(n):
        if scheme == 2:
            y = r * ((x * x) * x) + (x - r * x)
        elif scheme == 3:
            y = x * ((r * x) * x + omr)
        else:
            y = ((r * x) * x) * x + omr * x
        x = damping * y
        if not -1.5 <= x <= 1.5:
            raise ValueError(f"reference orbit escaped at iteration {len(out)}")
        out.append(x)
    return np.array(out, dtype=np.float64)


def key_bytes(samples: np.ndarray) -> np.ndarray:
    """y = x/2 + 1, keep the fractional part of 1000*y, then floor(255*frac)."""
    z = (samples / 2.0 + 1.0) * 1000.0
    return np.floor(255.0 * (z - np.floor(z))).astype(np.uint8)


def keystream(profile: str, count: int | None = None, x0: float = 0.1) -> np.ndarray:
    """First ``count`` bytes (default: all) of a device profile's keystream.

    ``profile`` is ``device<k>`` (single orbit from ``x0``) or
    ``device<k>-damped`` (70 equispaced seeds, 1024 damped iterations each).
    """
    scheme = int(profile[len("device")])
    if profile.endswith("-damped"):
        total = SEED_COUNT * ITERATIONS_PER_SEED
        count = total if count is None else count
        parts = []
        for i in range(1, math.ceil(count / ITERATIONS_PER_SEED) + 1):
            samples = orbit(i / (SEED_COUNT + 1), DAMPED_R, scheme, DAMPING, ITERATIONS_PER_SEED)
            parts.append(key_bytes(samples[1:]))
        return np.concatenate(parts)[:count] if parts else np.empty(0, np.uint8)
    count = SINGLE_ITERATIONS if count is None else count
    return key_bytes(orbit(x0, SINGLE_R, scheme, 1.0, count)[1:])


def key_matrix(stream: np.ndarray, width: int, height: int) -> np.ndarray:
    """Column-major fill: stream[0] at (0, 0), stream[1] at (1, 0)."""
    return np.asarray(stream[: width * height], dtype=np.uint8).reshape((height, width), order="F")


def sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()
