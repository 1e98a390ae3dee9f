"""Every importable kernel backend rejects invalid input the same way.

Each case pins one outcome: the exception type, raised before any byte
of ``out`` is written, or the return value and the bytes of ``out``.
Arguments convert as the C kernel's argument parser converts them, so a
str where a number belongs, a float where an integer belongs and an
integer beyond Py_ssize_t fail with the same types on every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicrypt._backend import available_backends

S = 0xA5  # sentinel: a byte still equal to it was never written
TWO = np.array([0.1, 0.1])  # two lanes


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


def _nonzero_counts(counts):
    """A 256-long int64 count array's nonzero entries, as {byte: count}."""
    assert counts.dtype == np.int64 and counts.shape == (256,)
    return {int(value): int(counts[value]) for value in np.flatnonzero(counts)}


CASES = {
    "scheme-0": (lambda k, out: k.run_orbit(0.1, 3.6, 0, 1.0, 8), ValueError),
    "scheme-5": (lambda k, out: k.run_orbit(0.1, 3.6, 5, 1.0, 8), ValueError),
    "n-minus-1": (lambda k, out: k.run_orbit(0.1, 3.6, 1, 1.0, -1), ValueError),
    "n-minus-2": (lambda k, out: k.run_orbit(0.1, 3.6, 1, 1.0, -2), ValueError),
    "str-x0": (lambda k, out: k.run_orbit("0.1", 3.6, 1, 1.0, 8), TypeError),
    "float-scheme": (lambda k, out: k.run_orbit(0.1, 3.6, 1.0, 1.0, 8), TypeError),
    "n-2**64": (lambda k, out: k.run_orbit(0.1, 3.6, 1, 1.0, 2**64), OverflowError),
    "short-out": (lambda k, out: k.normalize_block(np.full(5, 0.25), out), ValueError),
    "float32-samples": (
        lambda k, out: k.normalize_block(np.full(4, 0.25, dtype=np.float32), out),
        TypeError,
    ),
    "strided-samples": (lambda k, out: k.normalize_block(np.full(8, 0.25)[::2], out), ValueError),
    "read-only-out": (lambda k, out: k.normalize_block(np.full(4, 0.25), _read_only(out)), ValueError),
    "nan-sample": (
        lambda k, out: k.normalize_block(np.array([0.001, np.nan, 0.25, 0.5]), out),
        (1, bytes([127, S, S, S])),
    ),
    # keystream(x0s, r, scheme, damping, block, out): the same checks
    "ks-scheme-0": (lambda k, out: k.keystream(TWO, 3.6, 0, 1.0, 2, out), ValueError),
    "ks-scheme-5": (lambda k, out: k.keystream(TWO, 3.6, 5, 1.0, 2, out), ValueError),
    "ks-block-minus-1": (lambda k, out: k.keystream(TWO, 3.6, 1, 1.0, -1, out), ValueError),
    "ks-str-r": (lambda k, out: k.keystream(TWO, "3.6", 1, 1.0, 2, out), TypeError),
    "ks-float-scheme": (lambda k, out: k.keystream(TWO, 3.6, 1.0, 1.0, 2, out), TypeError),
    "ks-block-2**64": (lambda k, out: k.keystream(TWO, 3.6, 1, 1.0, 2**64, out), OverflowError),
    "ks-short-out": (lambda k, out: k.keystream(TWO, 3.6, 1, 1.0, 3, out), ValueError),
    "ks-lanes-times-block-overflows": (
        lambda k, out: k.keystream(np.full(4, 0.1), 3.6, 1, 1.0, 2**62, out),
        ValueError,
    ),
    "ks-float32-x0s": (
        lambda k, out: k.keystream(TWO.astype(np.float32), 3.6, 1, 1.0, 2, out),
        TypeError,
    ),
    "ks-strided-x0s": (lambda k, out: k.keystream(np.full(4, 0.1)[::2], 3.6, 1, 1.0, 2, out), ValueError),
    "ks-read-only-out": (lambda k, out: k.keystream(TWO, 3.6, 1, 1.0, 2, _read_only(out)), ValueError),
    # faults: lane 0 (x0 0.1) is clean; lane 1's bytes stay unwritten
    "ks-escape-lane-1": (
        lambda k, out: k.keystream(np.array([0.1, 1.2]), 3.6, 1, 1.0, 2, out),
        ((1, True, 1, 3.1007999999999996), bytes([204, 249, S, S])),
    ),
    "ks-escape-beats-bad-sample": (
        lambda k, out: k.keystream(np.array([0.1, -1.05]), 3.6, 1, 1.0, 2, out),
        ((1, True, 2, -6.955166523187053), bytes([204, 249, S, S])),
    ),
    "ks-bad-sample-lane-1": (
        lambda k, out: k.keystream(np.array([0.1, -1.05]), 3.6, 1, 1.0, 1, out),
        ((1, False, 0, -1.4374500000000001), bytes([204, S, S, S])),
    ),
    "ks-clean": (lambda k, out: k.keystream(TWO, 3.6, 1, 1.0, 2, out), (None, bytes([204, 249] * 2))),
    # byte_counts(data): a 1-D contiguous uint8 buffer, read-only or not
    "bc-2d": (lambda k, out: k.byte_counts(out.reshape(2, 2)), ValueError),
    "bc-strided": (lambda k, out: k.byte_counts(out[::2]), ValueError),
    "bc-int8": (lambda k, out: k.byte_counts(out.view(np.int8)), TypeError),
    "bc-uint16": (lambda k, out: k.byte_counts(out.view(np.uint16)), TypeError),
    "bc-float64": (lambda k, out: k.byte_counts(np.zeros(4)), TypeError),
    "bc-bytes": (
        lambda k, out: _nonzero_counts(k.byte_counts(b"\x00\xff\xff")),
        ({0: 1, 255: 2}, bytes([S] * 4)),
    ),
    "bc-read-only-out": (
        lambda k, out: _nonzero_counts(k.byte_counts(_read_only(out))),
        ({S: 4}, bytes([S] * 4)),
    ),
}


@pytest.mark.parametrize("backend", sorted(available_backends()))
@pytest.mark.parametrize("case", sorted(CASES))
def test_invalid_input_parity(case, backend):
    call, expected = CASES[case]
    kernels = available_backends()[backend]
    out = np.full(4, S, dtype=np.uint8)
    if isinstance(expected, type):
        with pytest.raises(expected):
            call(kernels, out)
        expected = bytes([S] * 4)
    else:
        result, expected = expected
        assert call(kernels, out) == result
    assert out.tobytes() == expected


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=5000))
def test_byte_counts_equal_bincount(data):
    expected = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    for backend, kernels in sorted(available_backends().items()):
        for given_as in (data, np.frombuffer(data, dtype=np.uint8)):
            counts = kernels.byte_counts(given_as)
            assert counts.dtype == np.int64 and np.array_equal(counts, expected), backend
