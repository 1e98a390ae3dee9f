"""Keystream and key-matrix derivation from pseudo-orbits.

A sample x in [-1, 1] becomes a byte through y = x/2 + 1, dropping the
first three decimal places (keep the fractional part of 1000*y), then
floor(255 * frac). The fractional part lies in [0, 1), so bytes span
[0, 254] and the value 255 is never produced.

Two keystream modes exist. Single-orbit: one long undamped orbit, bytes
taken from iterate 1 onward (the seed itself is shared knowledge, not
chaotic output). Multi-seed: equispaced seeds i/(seed_count+1) inside
(0, 1), each iterated a short, damped run; short runs limit how far
rounding differences can grow before the next seed resets the orbit,
which is the whole point of the mitigation.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from cubicrypt import _backend
from cubicrypt.maps import (  # noqa: F401  callers look iterate_orbit up here
    EvaluationScheme,
    MapConfig,
    OrbitDivergenceError,
    iterate_orbit,
)

SINGLE_ORBIT_ITERATIONS = 70_000
MULTI_SEED_COUNT = 70
MULTI_SEED_ITERATIONS = 1024
MULTI_SEED_R = 3.61
MITIGATION_DAMPING = 0.89

KEY_BYTE_MAX = 254


@dataclass(frozen=True)
class KeystreamConfig:
    """Deterministic recipe for a byte keystream.

    Equal configs always produce bit-identical keystreams; this is the
    key-agreement contract two parties must share.
    """

    mode: Literal["single", "multiseed"]
    scheme: EvaluationScheme = EvaluationScheme.E1
    r: float = 3.6
    damping: float | None = None
    x0: float | None = None
    iterations: int | None = None
    seed_count: int | None = None
    iterations_per_seed: int | None = None

    @classmethod
    def single_orbit(
        cls,
        scheme: EvaluationScheme = EvaluationScheme.E1,
        x0: float = 0.1,
        r: float = 3.6,
        damping: float | None = None,
        iterations: int = SINGLE_ORBIT_ITERATIONS,
    ) -> "KeystreamConfig":
        return cls(
            mode="single", scheme=scheme, r=r, damping=damping, x0=x0, iterations=iterations
        )

    @classmethod
    def multi_seed(
        cls,
        scheme: EvaluationScheme = EvaluationScheme.E1,
        r: float = MULTI_SEED_R,
        damping: float | None = MITIGATION_DAMPING,
        seed_count: int = MULTI_SEED_COUNT,
        iterations_per_seed: int = MULTI_SEED_ITERATIONS,
    ) -> "KeystreamConfig":
        return cls(
            mode="multiseed",
            scheme=scheme,
            r=r,
            damping=damping,
            seed_count=seed_count,
            iterations_per_seed=iterations_per_seed,
        )

    def __post_init__(self):
        object.__setattr__(self, "scheme", EvaluationScheme(self.scheme))
        if self.mode == "single":
            if self.x0 is None or self.iterations is None:
                raise ValueError("single-orbit config needs x0 and iterations")
            if self.iterations < 0:
                raise ValueError("iterations must be >= 0")
        elif self.mode == "multiseed":
            if self.seed_count is None or self.iterations_per_seed is None:
                raise ValueError("multi-seed config needs seed_count and iterations_per_seed")
            if self.seed_count < 1 or self.iterations_per_seed < 1:
                raise ValueError("seed_count and iterations_per_seed must be >= 1")
        else:
            raise ValueError(f"unknown keystream mode {self.mode!r}")

    @property
    def available_samples(self) -> int:
        if self.mode == "single":
            return self.iterations
        return self.seed_count * self.iterations_per_seed

    def seeds(self) -> list[float]:
        """Multi-seed initial conditions: i/(seed_count+1), i = 1..seed_count.

        Strictly inside (0, 1), so the fixed points 0 and 1 are never used
        as seeds.
        """
        if self.mode != "multiseed":
            raise ValueError("seeds() only applies to multi-seed configs")
        return [i / (self.seed_count + 1) for i in range(1, self.seed_count + 1)]


@dataclass(frozen=True)
class KeyMatrix:
    """Image-shaped keystream: height x width bytes, each in [0, 254]."""

    cells: np.ndarray = field(repr=False)

    def __post_init__(self):
        cells = np.ascontiguousarray(self.cells)
        if cells.dtype != np.uint8:
            # no silent coercion: wrapping 300 -> 44 would corrupt the key
            raise ValueError(f"key cells must be uint8, got {cells.dtype}")
        if cells.ndim != 2:
            raise ValueError(f"key matrix must be 2-D, got shape {cells.shape}")
        if cells.size and int(cells.max()) > KEY_BYTE_MAX:
            raise ValueError(f"key bytes must lie in [0, {KEY_BYTE_MAX}]")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]


def normalize_sample(x: float) -> int:
    """Byte value of one orbit sample; raises if x is outside [-1, 1]."""
    out = np.empty(1, dtype=np.uint8)
    bad = _backend.normalize_block(np.array([x], dtype=np.float64), out)
    if bad >= 0:
        raise ValueError(f"sample {x!r} outside [-1, 1] cannot be normalized")
    return int(out[0])


def generate_keystream(config: KeystreamConfig, count: int) -> np.ndarray:
    """First ``count`` bytes of the keystream described by ``config``.

    Single-orbit mode normalizes iterates 1..count. Multi-seed mode
    concatenates each seed's normalized iterates in seed order (seed
    ascending, iterate ascending) and truncates; the order is part of the
    key-agreement contract, since any reorder breaks decryption. Each seed
    the stream reaches is checked over its whole block, and faults are
    reported in seed order, an escape before an out-of-range sample.

    Streams are cached per config (see ``_StreamCache``); the caller always
    gets an array of its own.
    """
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if count > config.available_samples:
        raise ValueError(
            f"keystream needs {count} samples but the config provides only "
            f"{config.available_samples}"
        )
    cached = _cache.get(config, count)
    if cached is not None:
        return cached
    if config.mode == "single":
        x0s, block = [config.x0], count
    else:
        block = config.iterations_per_seed
        x0s = config.seeds()[: -(-count // block)]
    if not x0s:
        return np.empty(0, dtype=np.uint8)
    # MapConfig checks r, x0 and damping; the other seeds lie inside (0, 1)
    map_config = MapConfig(r=config.r, x0=x0s[0], damping=config.damping, scheme=config.scheme)
    stream = np.empty(len(x0s) * block, dtype=np.uint8)
    fault = _backend.keystream(
        np.array(x0s, dtype=np.float64),
        map_config.r,
        int(map_config.scheme),
        map_config.effective_damping,
        block,
        stream,
    )
    if fault is not None:
        _, escaped, index, value = fault
        if escaped:
            raise OrbitDivergenceError(index, value)
        raise ValueError(f"orbit sample at index {index} ({np.float64(value)!r}) outside [-1, 1]")
    if _cache.put(config, stream):
        return stream[:count].copy()
    return stream[:count]


class _StreamCache:
    """Least-recently-used keystreams and key matrices, at most ``budget``
    bytes in total.

    A keystream is stored under its config. Keystreams are prefix-closed in
    ``count``, so one entry per config, the longest stream computed so far,
    serves every shorter request by slicing. An entry holds exactly what
    was computed and checked (whole seed blocks in multi-seed mode), never
    more, so a short request keeps succeeding where a longer one would
    fail. A key matrix is stored under ``(config, width, height)``, so a
    repeat costs one contiguous copy instead of the column-major fill.

    Stored arrays are read-only and callers get copies; failures are never
    stored. Each entry also counts ``ENTRY_OVERHEAD`` bytes against the
    budget, so tiny entries cannot pile up without bound.
    """

    ENTRY_OVERHEAD = 1024

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict[object, np.ndarray] = OrderedDict()
        self._lock = threading.Lock()

    def _cost(self, entry: np.ndarray) -> int:
        return entry.nbytes + self.ENTRY_OVERHEAD

    def get(self, key, count: int | None = None) -> np.ndarray | None:
        """Copy of the first ``count`` items stored under ``key`` (all of
        them if ``count`` is None); None if fewer are stored.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (count is not None and len(entry) < count):
                return None
            self._entries.move_to_end(key)
        return entry[:count].copy()

    def put(self, key, entry: np.ndarray) -> bool:
        """Keep ``entry``, made read-only; False if it exceeds the budget."""
        if self._cost(entry) > self.budget:
            return False
        entry.flags.writeable = False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.nbytes -= self._cost(old)
                if len(old) > len(entry):  # another thread stored more meanwhile
                    entry = old
            self._entries[key] = entry
            self.nbytes += self._cost(entry)
            while self.nbytes > self.budget:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= self._cost(evicted)
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


# Holds every PROFILES keystream in full (566 720 bytes) next to the 8
# profiles' 256x256 key matrices (524 288 bytes); together they exceed
# 1 MiB, and a key_matrix_for hit touches both its stream and its matrix.
CACHE_BYTES = 1 << 21
_cache = _StreamCache(CACHE_BYTES)


def _clear_cache() -> None:
    _cache.clear()


def build_key_matrix(stream, width: int, height: int) -> KeyMatrix:
    """Fill a height x width matrix from a byte stream, top to bottom then
    left to right (column-major): stream[0] lands at (row 0, col 0),
    stream[1] at (row 1, col 0). Excess stream bytes are ignored.
    """
    if width < 1 or height < 1:
        raise ValueError(f"matrix dimensions must be positive, got {width}x{height}")
    if isinstance(stream, (bytes, bytearray)):
        flat = np.frombuffer(bytes(stream), dtype=np.uint8)
    else:
        flat = np.asarray(stream).ravel()
        if flat.dtype != np.uint8:
            raise ValueError(f"key stream must be uint8, got {flat.dtype}")
    needed = width * height
    if len(flat) < needed:
        raise ValueError(f"stream has {len(flat)} bytes; {needed} needed for {width}x{height}")
    return KeyMatrix(cells=flat[:needed].reshape((height, width), order="F"))


def key_matrix_for(config: KeystreamConfig, width: int, height: int) -> KeyMatrix:
    """Keystream generation and matrix fill in one step.

    The stream always comes from ``generate_keystream``, which checks the
    request against the config, so every key, cached or not, passes the
    keystream layer; a warm stream costs one contiguous copy. Finished
    matrices share the keystream cache and its budget, so a repeat skips
    only the column-major fill, and a hit returns a private copy of the
    stored cells.
    """
    stream = generate_keystream(config, width * height)
    key = (config, width, height)
    cells = _cache.get(key)
    if cells is not None:
        return KeyMatrix(cells=cells)
    matrix = build_key_matrix(stream, width, height)
    _cache.put(key, matrix.cells.copy())
    return matrix
