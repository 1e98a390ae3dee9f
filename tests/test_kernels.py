"""Every importable kernel backend rejects invalid input the same way.

Each case pins one outcome: the exception type, raised before any byte
of ``out`` is written, or the stop index and the bytes of ``out``.
"""

import numpy as np
import pytest

from cubicrypt._backend import available_backends

S = 0xA5  # sentinel: a byte still equal to it was never written


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


CASES = {
    "scheme-0": (lambda k, out: k.run_orbit(0.1, 3.6, 0, 1.0, 8), ValueError),
    "scheme-5": (lambda k, out: k.run_orbit(0.1, 3.6, 5, 1.0, 8), ValueError),
    "n-minus-1": (lambda k, out: k.run_orbit(0.1, 3.6, 1, 1.0, -1), ValueError),
    "n-minus-2": (lambda k, out: k.run_orbit(0.1, 3.6, 1, 1.0, -2), ValueError),
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
        stop, expected = expected
        assert call(kernels, out) == stop
    assert out.tobytes() == expected
