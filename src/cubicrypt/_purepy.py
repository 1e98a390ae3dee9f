"""Pure-Python orbit, keystream and byte-count kernels.

Fallback used when the compiled extension is unavailable. Every arithmetic
operation here is IEEE 754 binary64 with round-to-nearest-even, applied in
the exact order written, so results are bit-identical to the compiled
kernels in ``_core.c``. Invalid arguments raise the same exception types
there and here, before anything is written.
"""

import operator
import sys

import numpy as np

BACKEND = "python"


def run_orbit(x0, r, scheme, damping, n):
    """Iterate the cubic map ``n`` times from ``x0``.

    ``scheme`` selects one of four algebraically equal orderings of
    r*x**3 + (1 - r)*x; each rounds differently, so orbits from different
    schemes drift apart. ``damping`` multiplies every iterate before it is
    fed back (pass 1.0 for the plain map; multiplying by 1.0 is exact).

    Returns ``(samples, escape_index)`` where ``samples`` is a float64
    array of length n + 1 with samples[0] == x0, and ``escape_index`` is
    the index of the first sample outside [-1.5, 1.5] (iteration stops
    there), or -1 if the whole orbit stayed inside. Raises ValueError for
    an unknown scheme or a negative ``n``; arguments convert as
    ``_core.c``'s ``"ddidn"`` parse does (see ``_double`` and ``_int``).
    """
    x0, r, scheme = _double(x0), _double(r), _int(scheme, _C_INT)
    damping, n = _double(damping), _int(n, _C_SSIZE)
    _check_scheme(scheme)
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    if scheme == 4:
        scheme = 1  # E4's ((r*x)*x)*x is E1's operation order, bit for bit
    out = np.empty(n + 1, dtype=np.float64)
    x = x0
    omr = 1.0 - r  # hoisted; bit-identical to recomputing per step
    out[0] = x
    for k in range(n):
        if scheme == 1:
            t = r * x
            t = t * x
            t = t * x
            y = t + omr * x
        elif scheme == 2:
            t = (x * x) * x
            t = r * t
            y = t + (x - r * x)
        else:
            t = (r * x) * x
            t = t + omr
            y = x * t
        y = damping * y
        out[k + 1] = y
        if not (-1.5 <= y <= 1.5):  # also catches NaN
            return out, k + 1
        x = y
    return out, -1


def normalize_block(samples, out):
    """Map orbit samples in [-1, 1] to key bytes in [0, 254].

    Pipeline per sample: y = x/2 + 1, then keep the fractional part of
    1000*y, then floor(255 * frac). x/2 is exact, z - floor(z) is exact
    (Sterbenz), and frac < 1 keeps the result strictly below 255.

    Writes bytes into ``out`` and returns -1, or the index of the first
    sample outside [-1, 1] (bytes before that index are still written,
    matching the sequential kernel).

    ``samples`` must be a 1-D contiguous float64 buffer (format 'd') and
    ``out`` a writable 1-D contiguous uint8 buffer (format 'B') at least
    as long: ValueError for the wrong shape, a read-only or short ``out``,
    TypeError for the wrong item format.
    """
    s = np.asarray(_block(samples, "samples", "d", writable=False))
    o = np.asarray(_block(out, "out", "B", writable=True))
    if len(o) < len(s):
        raise ValueError(f"out holds {len(o)} bytes, samples has {len(s)}")
    bad = (s < -1.0) | (s > 1.0) | np.isnan(s)
    stop = int(np.argmax(bad)) if bad.any() else -1
    if stop >= 0:
        s = s[:stop]
    y = s / 2.0 + 1.0
    z = y * 1000.0
    frac = z - np.floor(z)
    o[: len(s)] = np.floor(255.0 * frac).astype(np.uint8)
    return stop


def keystream(x0s, r, scheme, damping, block, out):
    """Key bytes of one orbit per seed in ``x0s``, ``block`` iterations each.

    Seed ``i``'s iterates 1..block, normalized, go to
    ``out[i*block:(i+1)*block]``. Returns None when every seed is clean,
    else the first faulty seed's ``(lane, escaped, index, value)``: a
    seed's fault is its escape (``index`` as ``run_orbit``'s escape index)
    wherever in the block it lies, otherwise its first sample outside
    [-1, 1] (``index`` as ``normalize_block``'s stop index); ``value`` is
    that sample. Bytes of a faulty seed are unspecified.

    Checks as ``run_orbit`` and ``normalize_block`` do, in this order:
    ``scheme``, ``block >= 0``, ``x0s`` (a 1-D contiguous float64 buffer),
    ``out`` (a writable 1-D contiguous uint8 buffer of at least
    ``len(x0s) * block`` bytes).
    """
    r, scheme = _double(r), _int(scheme, _C_INT)
    damping, block = _double(damping), _int(block, _C_SSIZE)
    _check_scheme(scheme)
    if block < 0:
        raise ValueError(f"block length must be >= 0, got {block}")
    seeds = _block(x0s, "x0s", "d", writable=False)
    o = np.asarray(_block(out, "out", "B", writable=True))
    if len(o) < len(seeds) * block:
        raise ValueError(f"out holds {len(o)} bytes, {len(seeds)} lanes of {block} needed")
    for lane, x0 in enumerate(seeds):
        samples, escape = run_orbit(x0, r, scheme, damping, block)
        if escape >= 0:
            return lane, True, escape, float(samples[escape])
        bad = normalize_block(samples[1:], o[lane * block : (lane + 1) * block])
        if bad >= 0:
            return lane, False, bad, float(samples[bad + 1])
    return None


def byte_counts(data):
    """How often each byte value 0..255 occurs in ``data``, as an int64
    array of 256 counts.

    ``data`` must be a 1-D contiguous uint8 buffer (format 'B'), such as
    bytes or a flat uint8 array: ValueError for the wrong shape, TypeError
    for the wrong item format.
    """
    view = _block(data, "data", "B", writable=False)
    return np.bincount(np.asarray(view), minlength=256).astype(np.int64, copy=False)


_C_INT = 1 << 31  # ranges [-limit, limit) of C int and Py_ssize_t
_C_SSIZE = sys.maxsize + 1


def _double(value):
    """``value`` as a C ``"d"`` argument takes it: any real number, not a str."""
    if not hasattr(type(value), "__float__") and not hasattr(type(value), "__index__"):
        raise TypeError(f"must be real number, not {type(value).__name__}")
    return float(value)


def _int(value, limit):
    """``value`` as a C ``"i"`` or ``"n"`` argument takes it: an integer,
    not a float (TypeError), in [-limit, limit) (OverflowError)."""
    value = operator.index(value)
    if not -limit <= value < limit:
        raise OverflowError(f"Python int too large to convert to C integer (limit {limit})")
    return value


def _check_scheme(scheme):
    if scheme not in (1, 2, 3, 4):
        raise ValueError(f"unknown evaluation scheme id {scheme!r}")


def _block(obj, name, fmt, writable):
    """``obj``'s buffer, checked as ``_core.c``'s get_block checks it."""
    view = memoryview(obj)
    if view.ndim != 1 or not view.c_contiguous:
        raise ValueError(f"{name} must be a 1-D contiguous buffer")
    if view.format != fmt:
        raise TypeError(f"{name} must have item format '{fmt}', got '{view.format}'")
    if writable and view.readonly:
        raise ValueError(f"{name} must be writable")
    return view
